//! Query results: ranked matches with per-channel similarity breakdowns.

use crate::budget::Completeness;
use crate::SearchMetrics;
use serde::{Deserialize, Serialize};
use uots_trajectory::TrajectoryId;

/// One recommended trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Match {
    /// The trajectory.
    pub id: TrajectoryId,
    /// Combined similarity `w_s·SimS + w_tx·SimT + w_tm·SimTm ∈ [0, 1]`.
    pub similarity: f64,
    /// Spatial channel value `SimS ∈ [0, 1]`.
    pub spatial: f64,
    /// Textual channel value `SimT ∈ [0, 1]`.
    pub textual: f64,
    /// Temporal channel value `SimTm ∈ [0, 1]` (0 when the channel is off).
    pub temporal: f64,
}

impl Match {
    /// Total order used everywhere: higher `similarity` first, ties broken
    /// by ascending trajectory id (deterministic across algorithms).
    pub fn ranking_cmp(&self, other: &Match) -> std::cmp::Ordering {
        other
            .similarity
            .total_cmp(&self.similarity)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// The answer to one UOTS query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Up to `k` matches, best first.
    pub matches: Vec<Match>,
    /// Search-effort counters.
    pub metrics: SearchMetrics,
    /// Whether this answer is exact or a certified best effort (budget
    /// exhausted, deadline hit, or cancelled).
    pub completeness: Completeness,
}

impl QueryResult {
    /// The uninformative answer of a run interrupted before any work: no
    /// matches, `bound_gap = 1.0` (nothing certified).
    pub(crate) fn interrupted_empty() -> Self {
        let mut metrics = SearchMetrics::for_one_query();
        metrics.interrupted = 1;
        QueryResult {
            matches: vec![],
            metrics,
            completeness: Completeness::BestEffort { bound_gap: 1.0 },
        }
    }

    /// The best match, if any trajectory was found at all.
    pub fn best(&self) -> Option<&Match> {
        self.matches.first()
    }

    /// Convenience: the ranked trajectory ids.
    pub fn ids(&self) -> Vec<TrajectoryId> {
        self.matches.iter().map(|m| m.id).collect()
    }

    /// Asserts the ranking invariant (sorted by [`Match::ranking_cmp`]);
    /// used by tests and debug assertions.
    pub fn is_ranked(&self) -> bool {
        self.matches
            .windows(2)
            .all(|w| w[0].ranking_cmp(&w[1]) != std::cmp::Ordering::Greater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u32, sim: f64) -> Match {
        Match {
            id: TrajectoryId(id),
            similarity: sim,
            spatial: sim,
            textual: 0.0,
            temporal: 0.0,
        }
    }

    #[test]
    fn ranking_prefers_higher_similarity_then_lower_id() {
        assert_eq!(m(0, 0.9).ranking_cmp(&m(1, 0.5)), std::cmp::Ordering::Less);
        assert_eq!(
            m(1, 0.5).ranking_cmp(&m(0, 0.9)),
            std::cmp::Ordering::Greater
        );
        assert_eq!(m(0, 0.5).ranking_cmp(&m(1, 0.5)), std::cmp::Ordering::Less);
        assert_eq!(m(3, 0.5).ranking_cmp(&m(3, 0.5)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn result_helpers() {
        let r = QueryResult {
            matches: vec![m(2, 0.8), m(0, 0.8), m(1, 0.3)],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        assert_eq!(r.best().unwrap().id, TrajectoryId(2));
        assert_eq!(
            r.ids(),
            vec![TrajectoryId(2), TrajectoryId(0), TrajectoryId(1)]
        );
        // 2 before 0 at equal similarity violates the tie-break order
        assert!(!r.is_ranked());
        let ok = QueryResult {
            matches: vec![m(0, 0.8), m(2, 0.8), m(1, 0.3)],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        assert!(ok.is_ranked());
    }

    #[test]
    fn empty_result() {
        let r = QueryResult {
            matches: vec![],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        assert!(r.best().is_none());
        assert!(r.is_ranked());
    }

    #[test]
    fn interrupted_empty_is_a_total_miss() {
        let r = QueryResult::interrupted_empty();
        assert!(r.matches.is_empty());
        assert!(!r.completeness.is_exact());
        assert_eq!(r.completeness.bound_gap(), 1.0);
        assert_eq!(r.metrics.interrupted, 1);
    }
}
