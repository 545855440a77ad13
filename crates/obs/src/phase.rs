//! The span taxonomy: where time goes inside one trajectory search.
//!
//! Every instrumented code path in the engine attributes its wall-clock
//! time to exactly one [`Phase`] at a time; the accumulated per-phase
//! durations travel with the query's `SearchMetrics` and feed the
//! per-phase latency histograms of the [`crate::MetricsRegistry`].

use serde::{Content, DeError, Deserialize, Serialize};
use std::time::Duration;

/// One phase of a trajectory search or join. The taxonomy is deliberately
/// coarse — six buckets that explain *why* a budget tripped, not a flame
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Incremental Dijkstra settles / full multi-source drains / timestamp
    /// scans — acquiring network and temporal distances.
    NetworkExpansion,
    /// Keyword-index lookups, textual similarity scoring, and textual
    /// candidate ranking.
    TextFilter,
    /// Exact evaluation of fully-scanned candidates, the unvisited sweep,
    /// and filter-and-refine verification loops.
    CandidateRefine,
    /// Bound-heap pushes/pops, termination tests, and coarse round-bound
    /// recomputation.
    HeapMaintenance,
    /// One probe trajectory's candidate search inside the similarity join.
    JoinPair,
    /// Nothing enters this phase (it timed the replay of a distance cache
    /// that no longer exists); the variant stays because the repository
    /// benchmark's `layers.rs` reads it.
    CacheReplay,
}

/// Number of phases (the length of [`Phase::ALL`]).
const NUM_PHASES: usize = 6;

impl Phase {
    /// Every phase, in stable order (the order of [`PhaseNanos`] slots).
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::NetworkExpansion,
        Phase::TextFilter,
        Phase::CandidateRefine,
        Phase::HeapMaintenance,
        Phase::JoinPair,
        Phase::CacheReplay,
    ];

    /// Stable snake_case name, used as the `phase` label of exported
    /// metrics and in trace JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::NetworkExpansion => "network_expansion",
            Phase::TextFilter => "text_filter",
            Phase::CandidateRefine => "candidate_refine",
            Phase::HeapMaintenance => "heap_maintenance",
            Phase::JoinPair => "join_pair",
            Phase::CacheReplay => "cache_replay",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub(crate) fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// The slot of this phase in [`PhaseNanos`] / [`Phase::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::NetworkExpansion => 0,
            Phase::TextFilter => 1,
            Phase::CandidateRefine => 2,
            Phase::HeapMaintenance => 3,
            Phase::JoinPair => 4,
            Phase::CacheReplay => 5,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Phase {
    fn serialize(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Phase {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        let s = String::deserialize(c)?;
        Phase::parse(&s).ok_or_else(|| DeError::custom(format!("unknown phase `{s}`")))
    }
}

/// Accumulated nanoseconds per phase — the per-query phase breakdown
/// carried in `SearchMetrics`. Additive under merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseNanos {
    nanos: [u64; NUM_PHASES],
}

impl PhaseNanos {
    /// All-zero breakdown.
    pub const ZERO: PhaseNanos = PhaseNanos {
        nanos: [0; NUM_PHASES],
    };

    /// Adds `nanos` to `phase`'s slot (saturating).
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        let slot = &mut self.nanos[phase.index()];
        *slot = slot.saturating_add(nanos);
    }

    /// Nanoseconds attributed to `phase`.
    #[inline]
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().fold(0u64, |a, &b| a.saturating_add(b)))
    }

    /// Whether no time was attributed at all (e.g. the run used a disabled
    /// recorder).
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }

    /// Slot-wise accumulation (phase durations are additive across queries).
    pub fn merge(&mut self, other: &PhaseNanos) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Iterates `(phase, nanos)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().map(|p| (p, self.nanos(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
            assert_eq!(Phase::ALL[p.index()], p);
        }
        assert_eq!(Phase::parse("bogus"), None);
    }

    #[test]
    fn serde_uses_snake_case_strings() {
        let json = serde_json::to_string(&Phase::NetworkExpansion).unwrap();
        assert_eq!(json, "\"network_expansion\"");
        let back: Phase = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Phase::NetworkExpansion);
        assert!(serde_json::from_str::<Phase>("\"nope\"").is_err());
    }

    #[test]
    fn accumulation_and_merge() {
        let mut a = PhaseNanos::ZERO;
        a.add(Phase::TextFilter, 10);
        a.add(Phase::TextFilter, 5);
        a.add(Phase::JoinPair, 7);
        assert_eq!(a.nanos(Phase::TextFilter), 15);
        assert_eq!(a.total(), Duration::from_nanos(22));
        assert!(!a.is_zero());

        let mut b = PhaseNanos::ZERO;
        assert!(b.is_zero());
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.nanos(Phase::TextFilter), 30);
        assert_eq!(b.nanos(Phase::JoinPair), 14);
        assert_eq!(b.nanos(Phase::NetworkExpansion), 0);
    }

    #[test]
    fn saturating_never_wraps() {
        let mut a = PhaseNanos {
            nanos: [u64::MAX; NUM_PHASES],
        };
        a.add(Phase::CandidateRefine, 1);
        let b = a;
        a.merge(&b);
        assert_eq!(a.nanos(Phase::CandidateRefine), u64::MAX);
    }
}
