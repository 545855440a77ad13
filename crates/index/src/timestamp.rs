//! Sorted timestamp index: the temporal analogue of network expansion.
//!
//! The temporal extension of the UOTS engine (PTM-style third channel)
//! expands outward from a query timestamp, scanning registered samples in
//! nondecreasing time difference — exactly mirroring how
//! `uots_network::expansion::NetworkExpansion` scans vertices in
//! nondecreasing network distance. The [`TimeExpansion`] cursor provides
//! the same contract: nondecreasing `|t - t_q|` and a radius that
//! lower-bounds everything not yet scanned.
//!
//! Timestamps are seconds within a 24-hour day (`0 ..= 86_400`), matching
//! the paper family's convention that dates are ignored because urban
//! movements recur daily.

use serde::{Deserialize, Serialize};

/// Seconds in a day; all timestamps are within `[0, DAY_SECONDS]`.
pub const DAY_SECONDS: f64 = 86_400.0;

/// A static index of `(timestamp, value)` pairs sorted by timestamp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimestampIndex<V> {
    times: Vec<f64>,
    values: Vec<V>,
}

impl<V: Copy> TimestampIndex<V> {
    /// Builds the index from arbitrary-order registrations.
    ///
    /// # Panics
    ///
    /// Panics when a timestamp is not finite or outside `[0, 86400]`.
    pub fn build(registrations: impl IntoIterator<Item = (f64, V)>) -> Self {
        let mut pairs: Vec<(f64, V)> = registrations.into_iter().collect();
        for (t, _) in &pairs {
            assert!(
                t.is_finite() && (0.0..=DAY_SECONDS).contains(t),
                "timestamp {t} outside [0, 86400]"
            );
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        TimestampIndex {
            times: pairs.iter().map(|p| p.0).collect(),
            values: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// The index over this one's entries whose value `keep` accepts plus
    /// the `added` registrations, in one linear merge. At equal times the
    /// kept entries go first and `added` keeps its own order, so when
    /// every added registration would come after every kept one in
    /// [`build`](Self::build)'s input (fresh ids above all old ones), the
    /// result equals that `build` entry for entry: `build` sorts stably.
    ///
    /// # Panics
    ///
    /// Panics when an added timestamp is not finite or outside `[0, 86400]`.
    pub fn merged(
        &self,
        keep: impl Fn(V) -> bool,
        added: impl IntoIterator<Item = (f64, V)>,
    ) -> Self {
        let fresh = Self::build(added);
        let cap = self.len() + fresh.len();
        let (mut times, mut values) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut j = 0;
        for (&t, &v) in self.times.iter().zip(&self.values) {
            if !keep(v) {
                continue;
            }
            while j < fresh.len() && fresh.times[j].total_cmp(&t).is_lt() {
                times.push(fresh.times[j]);
                values.push(fresh.values[j]);
                j += 1;
            }
            times.push(t);
            values.push(v);
        }
        times.extend_from_slice(&fresh.times[j..]);
        values.extend_from_slice(&fresh.values[j..]);
        TimestampIndex { times, values }
    }

    /// The registered timestamps, ascending by `f64::total_cmp`.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The registered values, in the order of [`times`](Self::times).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Number of registered samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no sample is registered.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Starts a temporal expansion from `t` (clamped to the day range).
    pub fn expand_from(&self, t: f64) -> TimeExpansion<'_, V> {
        let t = t.clamp(0.0, DAY_SECONDS);
        // first index with time >= t
        let right = self.times.partition_point(|&x| x < t);
        TimeExpansion {
            index: self,
            t,
            left: right as isize - 1,
            right,
            radius: 0.0,
        }
    }
}

/// A scanned sample: its value and its absolute time difference from the
/// expansion origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScanned<V> {
    /// The registered value.
    pub value: V,
    /// `|t_sample - t_query|` in seconds.
    pub dt: f64,
}

/// Two-pointer outward walk over a [`TimestampIndex`].
///
/// Yields samples in nondecreasing `dt`, so the last scanned `dt` is a
/// valid lower bound on the `dt` of every unscanned sample.
#[derive(Debug)]
pub struct TimeExpansion<'a, V> {
    index: &'a TimestampIndex<V>,
    t: f64,
    /// Next candidate to the left (earlier), -1 when exhausted.
    left: isize,
    /// Next candidate to the right (later or equal), `len` when exhausted.
    right: usize,
    radius: f64,
}

impl<'a, V: Copy> TimeExpansion<'a, V> {
    /// Whether all samples have been scanned.
    pub fn is_exhausted(&self) -> bool {
        self.left < 0 && self.right >= self.index.times.len()
    }

    /// Scans the next-nearest sample in time.
    pub fn next_scanned(&mut self) -> Option<TimeScanned<V>> {
        let lt = (self.left >= 0).then(|| self.t - self.index.times[self.left as usize]);
        let rt =
            (self.right < self.index.times.len()).then(|| self.index.times[self.right] - self.t);
        let take_left = match (lt, rt) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(l), Some(r)) => l <= r,
        };
        let scanned = if take_left {
            let i = self.left as usize;
            self.left -= 1;
            TimeScanned {
                value: self.index.values[i],
                dt: self.t - self.index.times[i],
            }
        } else {
            let i = self.right;
            self.right += 1;
            TimeScanned {
                value: self.index.values[i],
                dt: self.index.times[i] - self.t,
            }
        };
        debug_assert!(scanned.dt >= self.radius - 1e-9);
        self.radius = scanned.dt;
        Some(scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> TimestampIndex<u32> {
        TimestampIndex::build(vec![
            (3_600.0, 1u32),
            (7_200.0, 2),
            (7_300.0, 3),
            (10_000.0, 4),
            (0.0, 5),
            (86_400.0, 6),
        ])
    }

    #[test]
    fn scans_in_nondecreasing_dt() {
        let idx = index();
        let mut exp = idx.expand_from(7_250.0);
        let mut last = 0.0;
        let mut seen = Vec::new();
        while let Some(s) = exp.next_scanned() {
            assert!(s.dt >= last - 1e-9);
            last = s.dt;
            seen.push(s.value);
        }
        assert_eq!(seen.len(), 6);
        // nearest two are the 7200/7300 samples (both dt = 50; earlier-side
        // sample wins the tie)
        assert_eq!(&seen[..2], &[2, 3]);
        assert!(exp.is_exhausted());
    }

    #[test]
    fn radius_lower_bounds_unscanned() {
        let idx = index();
        let mut exp = idx.expand_from(7_250.0);
        for _ in 0..3 {
            exp.next_scanned();
        }
        let r = exp.radius;
        // remaining: 0.0, 10_000, 86_400 — all with dt >= r
        for t in [0.0f64, 10_000.0, 86_400.0] {
            assert!((t - 7_250.0).abs() >= r);
        }
    }

    #[test]
    fn expansion_from_exact_sample_time() {
        let idx = index();
        let mut exp = idx.expand_from(7_200.0);
        let first = exp.next_scanned().unwrap();
        assert_eq!(first.value, 2);
        assert_eq!(first.dt, 0.0);
    }

    #[test]
    fn expansion_from_extremes() {
        let idx = index();
        let mut exp = idx.expand_from(0.0);
        assert_eq!(exp.next_scanned().unwrap().value, 5);
        let mut exp = idx.expand_from(86_400.0);
        assert_eq!(exp.next_scanned().unwrap().value, 6);
    }

    #[test]
    fn out_of_range_origin_is_clamped() {
        let idx = index();
        let exp = idx.expand_from(1e9);
        assert_eq!(exp.t, DAY_SECONDS);
    }

    #[test]
    fn empty_index_expansion() {
        let idx: TimestampIndex<u32> = TimestampIndex::build(vec![]);
        assert!(idx.is_empty());
        let mut exp = idx.expand_from(100.0);
        assert!(exp.is_exhausted());
        assert_eq!(exp.next_scanned(), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_timestamp_panics() {
        TimestampIndex::build(vec![(-1.0, 0u32)]);
    }

    #[test]
    fn duplicates_all_scanned() {
        let idx = TimestampIndex::build(vec![(100.0, 1u32), (100.0, 2), (100.0, 3)]);
        let mut exp = idx.expand_from(100.0);
        let mut vals = Vec::new();
        while let Some(s) = exp.next_scanned() {
            assert_eq!(s.dt, 0.0);
            vals.push(s.value);
        }
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 2, 3]);
    }
}
