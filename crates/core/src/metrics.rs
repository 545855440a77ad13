//! Search metrics: the quantities the paper's evaluation reports.
//!
//! The paper family's two standard metrics are **CPU time** and the
//! **number of visited trajectories** (a proxy for data accesses); the
//! pruning-effectiveness tables additionally report candidate and pruning
//! ratios. [`SearchMetrics`] collects all of them per query, and
//! [`SearchMetrics::merge`] aggregates across a workload.

use serde::{Deserialize, Serialize};
use std::time::Duration;
use uots_obs::PhaseNanos;

/// Counters collected while answering one query (or aggregated over many).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchMetrics {
    /// Number of queries merged into this record (1 for a single query).
    pub queries: usize,
    /// Distinct trajectories touched by the search (scanned at least once,
    /// or exactly evaluated by a filter-and-refine baseline).
    pub visited_trajectories: usize,
    /// Vertices settled by network expansions (plus, for baselines, the
    /// vertices settled by their full Dijkstra passes).
    pub settled_vertices: usize,
    /// Timestamps scanned by temporal expansions (extension channel).
    pub scanned_timestamps: usize,
    /// Trajectories that became candidates (fully scanned / exactly
    /// evaluated).
    pub candidates: usize,
    /// Partly-scanned trajectories the expansion engine retired because
    /// their similarity upper bound fell strictly below the pruning
    /// threshold — visited, never exactly evaluated. For the engine,
    /// `visited_trajectories = candidates + retired +` those still partly
    /// scanned when the search stopped; the baselines retire nothing.
    pub retired: usize,
    /// Queries that ended best-effort (budget exhausted, deadline hit, or
    /// cancelled) instead of proving exactness.
    pub interrupted: usize,
    /// Entries pushed into the search's priority heaps: the engine's
    /// per-trajectory bound heap plus top-k offers (the baselines' only
    /// heap). Together with `peak_frontier` this makes expansion memory
    /// behavior visible alongside `settled_vertices`.
    pub heap_pushes: usize,
    /// Largest total Dijkstra frontier (pending heap entries summed over
    /// all spatial sources) observed at any step. Merging takes the max —
    /// queries do not run on the same frontier, so the aggregate reports
    /// the worst single query.
    pub peak_frontier: usize,
    /// Wall-clock time attributed to each search phase. All-zero unless the
    /// query ran under an enabled `uots_obs::Recorder` (telemetry is opt-in;
    /// the disabled recorder costs one branch per phase mark). Additive
    /// under [`SearchMetrics::merge`], like `runtime`.
    pub phases: PhaseNanos,
    /// Wall-clock time spent answering.
    pub runtime: Duration,
}

impl SearchMetrics {
    /// A zeroed record for one query.
    pub fn for_one_query() -> Self {
        SearchMetrics {
            queries: 1,
            ..Default::default()
        }
    }

    /// Candidate ratio: candidates / total trajectories in the database
    /// (averaged per query when merged). Zero for an empty database.
    ///
    /// Averaging semantics under [`SearchMetrics::merge`]: `candidates`
    /// accumulates and `queries` counts the merged records, so the ratio of
    /// a merged record is the **mean of the per-query ratios** (every query
    /// is weighted equally, each against the same `total_trajectories`
    /// denominator) — not the ratio of some pooled candidate set. This
    /// matches how the paper's tables average pruning power over a
    /// workload. It assumes all merged queries ran against the same
    /// database size; do not merge metrics across databases of different
    /// sizes and then read this ratio.
    pub fn candidate_ratio(&self, total_trajectories: usize) -> f64 {
        if total_trajectories == 0 || self.queries == 0 {
            return 0.0;
        }
        self.candidates as f64 / (total_trajectories * self.queries) as f64
    }

    /// Pruning ratio: `1 − candidate ratio`.
    pub fn pruning_ratio(&self, total_trajectories: usize) -> f64 {
        1.0 - self.candidate_ratio(total_trajectories)
    }

    /// Visited-trajectory count averaged per query.
    pub fn visited_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.visited_trajectories as f64 / self.queries as f64
    }

    /// Runtime averaged per query. Divides in `f64`, so aggregates of more
    /// than `u32::MAX` queries do not truncate the divisor (the old
    /// `runtime / queries as u32` silently wrapped there).
    pub fn runtime_per_query(&self) -> Duration {
        if self.queries == 0 {
            return Duration::ZERO;
        }
        self.runtime.div_f64(self.queries as f64)
    }

    /// Accumulates another record into this one. Counters and durations
    /// (including the per-phase breakdown) add; `peak_frontier` takes the
    /// max. See [`SearchMetrics::candidate_ratio`] for what the accumulated
    /// `candidates` means ratio-wise.
    pub fn merge(&mut self, other: &SearchMetrics) {
        self.queries += other.queries;
        self.visited_trajectories += other.visited_trajectories;
        self.settled_vertices += other.settled_vertices;
        self.scanned_timestamps += other.scanned_timestamps;
        self.candidates += other.candidates;
        self.retired += other.retired;
        self.interrupted += other.interrupted;
        self.heap_pushes += other.heap_pushes;
        self.peak_frontier = self.peak_frontier.max(other.peak_frontier);
        self.phases.merge(&other.phases);
        self.runtime += other.runtime;
    }

    /// Merges an iterator of records into one aggregate.
    pub fn aggregate<'a>(records: impl IntoIterator<Item = &'a SearchMetrics>) -> Self {
        let mut out = SearchMetrics::default();
        for r in records {
            out.merge(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_single_query() {
        let m = SearchMetrics {
            queries: 1,
            candidates: 25,
            ..Default::default()
        };
        assert!((m.candidate_ratio(100) - 0.25).abs() < 1e-12);
        assert!((m.pruning_ratio(100) - 0.75).abs() < 1e-12);
        assert_eq!(m.candidate_ratio(0), 0.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        use uots_obs::Phase;
        let mut pa = PhaseNanos::ZERO;
        pa.add(Phase::NetworkExpansion, 500);
        let mut pb = PhaseNanos::ZERO;
        pb.add(Phase::NetworkExpansion, 100);
        pb.add(Phase::CandidateRefine, 40);
        let mut a = SearchMetrics {
            queries: 1,
            visited_trajectories: 10,
            settled_vertices: 100,
            scanned_timestamps: 5,
            candidates: 3,
            retired: 4,
            interrupted: 1,
            heap_pushes: 12,
            peak_frontier: 40,
            phases: pa,
            runtime: Duration::from_millis(20),
        };
        let b = SearchMetrics {
            queries: 1,
            visited_trajectories: 30,
            settled_vertices: 50,
            scanned_timestamps: 0,
            candidates: 7,
            retired: 2,
            interrupted: 0,
            heap_pushes: 8,
            peak_frontier: 25,
            phases: pb,
            runtime: Duration::from_millis(10),
        };
        a.merge(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.visited_trajectories, 40);
        assert_eq!(a.settled_vertices, 150);
        assert_eq!(a.candidates, 10);
        assert_eq!(a.retired, 6);
        assert_eq!(a.interrupted, 1);
        assert_eq!(a.heap_pushes, 20);
        // peak is a max, not a sum: two queries never share a frontier
        assert_eq!(a.peak_frontier, 40);
        assert_eq!(a.phases.nanos(Phase::NetworkExpansion), 600);
        assert_eq!(a.phases.nanos(Phase::CandidateRefine), 40);
        assert_eq!(a.runtime, Duration::from_millis(30));
        assert!((a.visited_per_query() - 20.0).abs() < 1e-12);
        assert_eq!(a.runtime_per_query(), Duration::from_millis(15));
        // per-query candidate ratio: 10 candidates over 2 × 100
        assert!((a.candidate_ratio(100) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn runtime_per_query_survives_huge_query_counts() {
        // u32-truncating division would wrap `queries` to 0 here and panic
        // (or return garbage); div_f64 must stay finite and sane
        let m = SearchMetrics {
            queries: u32::MAX as usize + 2,
            runtime: Duration::from_secs(u32::MAX as u64 + 2),
            ..Default::default()
        };
        let per = m.runtime_per_query();
        assert!((per.as_secs_f64() - 1.0).abs() < 1e-6, "got {per:?}");
    }

    #[test]
    fn aggregate_of_empty_is_zero() {
        let agg = SearchMetrics::aggregate([]);
        assert_eq!(agg.queries, 0);
        assert_eq!(agg.visited_per_query(), 0.0);
        assert_eq!(agg.runtime_per_query(), Duration::ZERO);
    }
}
