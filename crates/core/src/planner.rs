//! The algorithm dispatch: [`AlgorithmKind`] names one of the four UOTS
//! algorithms and runs it.
//!
//! All four return *identical* rankings (the differential harness proves
//! it bit for bit); they differ only in cost. The service runs
//! [`AlgorithmKind::Expansion`] — the paper's expansion search under the
//! heuristic scheduler — unless a request's `"algorithm"` field names
//! another kind. There is no per-query routing: DESIGN §15.2 records the
//! measurements that retired it.
//!
//! [`AlgorithmKind`] implements [`Algorithm`] with one `match`, so a kind
//! drops into the batch executors
//! ([`crate::parallel::run_batch_cluster`]) and into
//! [`crate::ClusterSnapshot::search`] as it is.

use crate::algorithms::{Algorithm, BruteForce, Expansion, IknnBaseline, TextFirst};
use crate::budget::RunControl;
use crate::{CoreError, Database, QueryResult, UotsQuery, View};
use uots_obs::Recorder;

/// One of the four UOTS algorithms, as a value (the `"algorithm"` field of
/// a search request, and the name a reply's `planned` entry reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The exact oracle; full-drain evaluation (one multi-source batched
    /// Dijkstra).
    BruteForce,
    /// Textual filter-and-refine baseline (requires the keyword index).
    TextFirst,
    /// Lockstep-round candidate generation with the coarse radius bound.
    IknnBaseline,
    /// The paper's expansion search under the heuristic scheduler.
    Expansion,
}

impl AlgorithmKind {
    /// Every kind, in a fixed order (test sweeps).
    pub const ALL: [AlgorithmKind; 4] = [
        AlgorithmKind::BruteForce,
        AlgorithmKind::TextFirst,
        AlgorithmKind::IknnBaseline,
        AlgorithmKind::Expansion,
    ];

    /// Stable name, accepted back by [`AlgorithmKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::BruteForce => "brute-force",
            AlgorithmKind::TextFirst => "text-first",
            AlgorithmKind::IknnBaseline => "iknn-baseline",
            AlgorithmKind::Expansion => "expansion",
        }
    }

    /// Parses a kind name (a request's `"algorithm"` field).
    pub fn parse(s: &str) -> Option<AlgorithmKind> {
        match s {
            "brute-force" | "bruteforce" | "oracle" => Some(AlgorithmKind::BruteForce),
            "text-first" | "textfirst" => Some(AlgorithmKind::TextFirst),
            "iknn-baseline" | "iknn" => Some(AlgorithmKind::IknnBaseline),
            "expansion" => Some(AlgorithmKind::Expansion),
            _ => None,
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Algorithm for AlgorithmKind {
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        match self {
            AlgorithmKind::BruteForce => BruteForce.run_ctx(view, query, ctl, rec),
            AlgorithmKind::TextFirst => TextFirst.run_ctx(view, query, ctl, rec),
            AlgorithmKind::IknnBaseline => IknnBaseline::default().run_ctx(view, query, ctl, rec),
            AlgorithmKind::Expansion => Expansion::default().run_ctx(view, query, ctl, rec),
        }
    }

    fn name(&self) -> &'static str {
        AlgorithmKind::name(*self)
    }
}

/// Forwarding shim for the repository benchmark's white-box layer
/// (`crates/bench/src/bin/benchmark/src/layers.rs`), which names
/// `Planner::{new, forced, decide}`; nothing else uses it. It wraps one
/// kind and runs it: [`Planner::new`] is the served default,
/// [`AlgorithmKind::Expansion`]. Delete it once that file names
/// [`AlgorithmKind`] instead.
#[derive(Debug, Clone, Copy)]
pub struct Planner(AlgorithmKind);

impl Default for Planner {
    fn default() -> Self {
        Planner(AlgorithmKind::Expansion)
    }
}

impl Planner {
    /// The served default, [`AlgorithmKind::Expansion`].
    pub fn new() -> Planner {
        Planner::default()
    }

    /// A shim that runs `kind`.
    pub fn forced(kind: AlgorithmKind) -> Planner {
        Planner(kind)
    }

    /// The kind this shim runs, whatever the database and query.
    pub fn decide(&self, _db: &Database<'_>, _query: &UotsQuery) -> AlgorithmKind {
        self.0
    }
}

impl Algorithm for Planner {
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        self.0.run_ctx(view, query, ctl, rec)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            AlgorithmKind::parse("iknn"),
            Some(AlgorithmKind::IknnBaseline)
        );
        assert_eq!(AlgorithmKind::parse("nope"), None);
    }
}
