//! The UOTS query model.
//!
//! A query consists of a set of intended places (network vertices), a set of
//! preference keywords, an optional set of preferred timestamps (temporal
//! extension), and the combination options: channel weights, the decay
//! scales and the answer size `k`. The textual similarity is Jaccard.

use crate::CoreError;
use serde::{Deserialize, Serialize};
use uots_index::DAY_SECONDS;
use uots_network::NodeId;
use uots_text::KeywordSet;

/// Maximum number of query locations (the per-source scan masks use `u64`).
pub(crate) const MAX_LOCATIONS: usize = 64;

/// Relative weights of the similarity channels. Non-negative, summing to 1.
///
/// The classic UOTS query uses `spatial = λ`, `textual = 1 − λ`,
/// `temporal = 0`; see [`Weights::lambda`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Weight of the spatial similarity channel.
    pub spatial: f64,
    /// Weight of the textual similarity channel.
    pub textual: f64,
    /// Weight of the temporal similarity channel (extension).
    pub temporal: f64,
}

impl Weights {
    /// The paper's linear combination: `λ` spatial, `1 − λ` textual.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] when `λ ∉ [0, 1]`.
    pub fn lambda(lambda: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&lambda) || !lambda.is_finite() {
            return Err(CoreError::BadParameter(format!(
                "lambda must be in [0, 1], got {lambda}"
            )));
        }
        Ok(Weights {
            spatial: lambda,
            textual: 1.0 - lambda,
            temporal: 0.0,
        })
    }

    /// Arbitrary weights; validated and normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] for negative, non-finite or all-zero
    /// weights.
    pub fn new(spatial: f64, textual: f64, temporal: f64) -> Result<Self, CoreError> {
        for (name, w) in [
            ("spatial", spatial),
            ("textual", textual),
            ("temporal", temporal),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::BadParameter(format!(
                    "{name} weight must be finite and non-negative, got {w}"
                )));
            }
        }
        let sum = spatial + textual + temporal;
        if sum <= 0.0 {
            return Err(CoreError::BadParameter(
                "at least one weight must be positive".into(),
            ));
        }
        Ok(Weights {
            spatial: spatial / sum,
            textual: textual / sum,
            temporal: temporal / sum,
        })
    }

    /// Whether the temporal channel is active.
    pub(crate) fn uses_temporal(&self) -> bool {
        self.temporal > 0.0
    }
}

impl Default for Weights {
    /// λ = 0.5 — the paper family's default preference parameter.
    fn default() -> Self {
        Weights {
            spatial: 0.5,
            textual: 0.5,
            temporal: 0.0,
        }
    }
}

/// Non-structural query options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Channel weights.
    pub weights: Weights,
    /// Answer size (top-k); `k ≥ 1`.
    pub k: usize,
    /// Resource limits; unlimited by default. Exhausting the budget ends
    /// the search early with a [`crate::Completeness::BestEffort`] answer
    /// instead of an error.
    pub budget: crate::budget::ExecutionBudget,
    /// Spatial decay scale in kilometres: the spatial similarity of one
    /// query place is `e^(−d / decay_km)`. The paper writes `e^(−d)`, i.e.
    /// a unit decay scale; exposing it keeps the measure meaningful on any
    /// coordinate scale.
    pub decay_km: f64,
    /// Temporal decay scale in seconds (extension channel).
    pub decay_s: f64,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            weights: Weights::default(),
            k: 1,
            budget: crate::budget::ExecutionBudget::UNLIMITED,
            decay_km: 1.0,
            decay_s: 1_800.0,
        }
    }
}

/// A validated UOTS query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UotsQuery {
    locations: Vec<NodeId>,
    keywords: KeywordSet,
    times: Vec<f64>,
    options: QueryOptions,
}

impl UotsQuery {
    /// Builds the classic spatial + textual query with default options
    /// (λ = 0.5, k = 1).
    ///
    /// # Errors
    ///
    /// See [`UotsQuery::with_options`].
    pub fn new(locations: Vec<NodeId>, keywords: KeywordSet) -> Result<Self, CoreError> {
        Self::with_options(locations, keywords, Vec::new(), QueryOptions::default())
    }

    /// Builds a query with explicit options and optional preferred
    /// timestamps (`times` — seconds of day; required non-empty exactly
    /// when the temporal weight is positive).
    ///
    /// Locations are deduplicated, preserving first-occurrence order.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] when: no locations, more than
    /// `MAX_LOCATIONS` (64) distinct locations, `k == 0`, a non-positive decay
    /// scale, temporal weight without timestamps (or vice versa), or an
    /// out-of-range timestamp.
    pub fn with_options(
        locations: Vec<NodeId>,
        keywords: KeywordSet,
        times: Vec<f64>,
        options: QueryOptions,
    ) -> Result<Self, CoreError> {
        let mut dedup = Vec::with_capacity(locations.len());
        for v in locations {
            if !dedup.contains(&v) {
                dedup.push(v);
            }
        }
        if dedup.is_empty() {
            return Err(CoreError::BadParameter(
                "a query needs at least one intended place".into(),
            ));
        }
        if dedup.len() > MAX_LOCATIONS {
            return Err(CoreError::BadParameter(format!(
                "at most {MAX_LOCATIONS} query locations are supported, got {}",
                dedup.len()
            )));
        }
        if options.k == 0 {
            return Err(CoreError::BadParameter("k must be at least 1".into()));
        }
        if options.decay_km <= 0.0
            || options.decay_km.is_nan()
            || options.decay_s <= 0.0
            || options.decay_s.is_nan()
        {
            return Err(CoreError::BadParameter(
                "decay scales must be positive".into(),
            ));
        }
        if options.weights.uses_temporal() && times.is_empty() {
            return Err(CoreError::BadParameter(
                "temporal weight requires preferred timestamps".into(),
            ));
        }
        if !options.weights.uses_temporal() && !times.is_empty() {
            return Err(CoreError::BadParameter(
                "timestamps given but the temporal weight is zero".into(),
            ));
        }
        if times.len() > MAX_LOCATIONS {
            return Err(CoreError::BadParameter(format!(
                "at most {MAX_LOCATIONS} preferred timestamps are supported"
            )));
        }
        for &t in &times {
            if !t.is_finite() || !(0.0..=DAY_SECONDS).contains(&t) {
                return Err(CoreError::BadParameter(format!(
                    "timestamp {t} outside [0, 86400]"
                )));
            }
        }
        Ok(UotsQuery {
            locations: dedup,
            keywords,
            times,
            options,
        })
    }

    /// The intended places (deduplicated, in given order).
    #[inline]
    pub fn locations(&self) -> &[NodeId] {
        &self.locations
    }

    /// Compact one-line description for telemetry (trace-exemplar and
    /// journal labels): location count, keyword count, and k.
    pub fn summary(&self) -> String {
        format!(
            "locs={} keywords={} k={}",
            self.locations.len(),
            self.keywords.len(),
            self.options.k
        )
    }

    /// The preference keywords.
    #[inline]
    pub fn keywords(&self) -> &KeywordSet {
        &self.keywords
    }

    /// The preferred timestamps (empty unless the temporal channel is on).
    #[inline]
    pub(crate) fn times(&self) -> &[f64] {
        &self.times
    }

    /// The query options.
    #[inline]
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Number of intended places (`m`).
    #[inline]
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }

    /// Returns a copy with different options (revalidated).
    ///
    /// # Errors
    ///
    /// Same as [`UotsQuery::with_options`].
    pub fn reoptioned(&self, options: QueryOptions) -> Result<Self, CoreError> {
        Self::with_options(
            self.locations.clone(),
            self.keywords.clone(),
            self.times.clone(),
            options,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_text::KeywordId;

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn lambda_weights() {
        let w = Weights::lambda(0.3).unwrap();
        assert!((w.spatial - 0.3).abs() < 1e-12);
        assert!((w.textual - 0.7).abs() < 1e-12);
        assert_eq!(w.temporal, 0.0);
        assert!(Weights::lambda(-0.1).is_err());
        assert!(Weights::lambda(1.1).is_err());
        assert!(Weights::lambda(f64::NAN).is_err());
    }

    #[test]
    fn weights_normalize() {
        let w = Weights::new(2.0, 1.0, 1.0).unwrap();
        assert!((w.spatial - 0.5).abs() < 1e-12);
        assert!((w.textual - 0.25).abs() < 1e-12);
        assert!((w.temporal - 0.25).abs() < 1e-12);
        assert!(w.uses_temporal());
        assert!(Weights::new(0.0, 0.0, 0.0).is_err());
        assert!(Weights::new(-1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn query_dedups_locations_in_order() {
        let q = UotsQuery::new(
            vec![NodeId(3), NodeId(1), NodeId(3), NodeId(2), NodeId(1)],
            kws(&[]),
        )
        .unwrap();
        assert_eq!(q.locations(), &[NodeId(3), NodeId(1), NodeId(2)]);
        assert_eq!(q.num_locations(), 3);
    }

    #[test]
    fn query_validation() {
        assert!(UotsQuery::new(vec![], kws(&[])).is_err());

        let too_many: Vec<NodeId> = (0..65).map(NodeId).collect();
        assert!(UotsQuery::new(too_many, kws(&[])).is_err());

        let opts = QueryOptions {
            k: 0,
            ..Default::default()
        };
        assert!(UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![], opts).is_err());

        let opts = QueryOptions {
            decay_km: 0.0,
            ..Default::default()
        };
        assert!(UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![], opts).is_err());
    }

    #[test]
    fn temporal_consistency_is_enforced() {
        let opts = QueryOptions {
            weights: Weights::new(1.0, 1.0, 1.0).unwrap(),
            ..Default::default()
        };
        // temporal weight without timestamps
        assert!(UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![], opts.clone()).is_err());
        // with timestamps it works
        let q = UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![30_000.0], opts).unwrap();
        assert_eq!(q.times(), &[30_000.0]);

        // timestamps without temporal weight
        let opts = QueryOptions::default();
        assert!(UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![1.0], opts).is_err());

        // out-of-range timestamp
        let opts = QueryOptions {
            weights: Weights::new(1.0, 0.0, 1.0).unwrap(),
            ..Default::default()
        };
        assert!(UotsQuery::with_options(vec![NodeId(0)], kws(&[]), vec![1e9], opts).is_err());
    }

    #[test]
    fn reoptioned_revalidates() {
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[1])).unwrap();
        let opts = QueryOptions {
            k: 5,
            ..Default::default()
        };
        let q5 = q.reoptioned(opts).unwrap();
        assert_eq!(q5.options().k, 5);
        let bad = QueryOptions {
            k: 0,
            ..Default::default()
        };
        assert!(q.reoptioned(bad).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let q = UotsQuery::new(vec![NodeId(1), NodeId(2)], kws(&[3, 4])).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: UotsQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
