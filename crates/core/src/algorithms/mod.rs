//! The UOTS algorithms: the paper's expansion search, its scheduling
//! ablations, and the comparison baselines.
//!
//! | Algorithm | Pruning | Role |
//! |---|---|---|
//! | [`BruteForce`] | none | exact oracle / unoptimized reference |
//! | [`TextFirst`] | textual filter-and-refine | "driven by the wrong domain" baseline (cf. the temporal-first baseline of the paper family) |
//! | [`IknnBaseline`] | lockstep rounds, coarse radius bound | adapted BCT/IKNN candidate generation |
//! | [`Expansion`] | per-trajectory bounds + scheduling | **the paper's contribution** |
//!
//! All algorithms return *identical* rankings (property-tested); they differ
//! only in how much work they do.

mod brute_force;
mod expansion;
mod iknn;
mod text_first;

pub use brute_force::BruteForce;
pub use expansion::Expansion;
pub use iknn::IknnBaseline;
pub use text_first::TextFirst;

use crate::budget::RunControl;
use crate::{CoreError, Database, QueryResult, UotsQuery, View};
use uots_obs::Recorder;

/// A UOTS query algorithm.
///
/// Every implementation is **anytime**: it honors the query's
/// [`crate::ExecutionBudget`] and the run's [`RunControl`] (cancellation
/// token + external deadline) and, when interrupted, returns its current
/// top-k tagged [`crate::Completeness::BestEffort`] with a certified bound
/// gap instead of failing.
///
/// Every implementation is also **observable**: the required entry point
/// [`Algorithm::run_ctx`] takes a [`Recorder`] and attributes its
/// wall-clock time to the phase taxonomy of [`uots_obs::Phase`], filling
/// `metrics.phases`. [`Algorithm::run`] passes [`Recorder::disabled`] — the
/// no-op sink, one branch per phase mark — so uninstrumented callers pay
/// nothing.
pub trait Algorithm {
    /// Answers `query` over `view` — one run over all of its parts, in
    /// the view's global ids — under explicit run control, attributing
    /// phase time to `rec`. A run whose token is
    /// already cancelled (or whose deadline already passed) returns the
    /// empty best-effort answer with `bound_gap = 1.0`. The budget covers
    /// the run, not each part; the run records what it did with each part
    /// in the view (`View::fates`).
    ///
    /// Use one recorder per query: the implementation publishes
    /// `rec.phases_snapshot()` into the result's `metrics.phases`, so a
    /// recorder shared across queries would leak earlier time into later
    /// metrics. The caller keeps ownership of `rec` (call
    /// [`Recorder::finish`] afterwards for the trace).
    ///
    /// # Errors
    ///
    /// Validation errors from `View::validate` plus any
    /// algorithm-specific index requirements. Interruption is *not* an
    /// error.
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError>;

    /// [`Algorithm::run_ctx`] over the one-part view of `db`.
    ///
    /// # Errors
    ///
    /// See [`Algorithm::run_ctx`].
    fn run_recorded(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        self.run_ctx(&View::one(*db), query, ctl, rec)
    }

    /// Answers `query` over `db` with no external control (the query's own
    /// budget, if any, still applies) and no recorder.
    ///
    /// # Errors
    ///
    /// See [`Algorithm::run_ctx`].
    fn run(&self, db: &Database<'_>, query: &UotsQuery) -> Result<QueryResult, CoreError> {
        self.run_recorded(
            db,
            query,
            &RunControl::unbounded(),
            &mut Recorder::disabled(),
        )
    }

    /// Display name used in experiment output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOptions;
    use crate::Scheduler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uots_datagen::{workload, Dataset, DatasetConfig};
    use uots_index::TimestampIndex;
    use uots_trajectory::TrajectoryId;

    fn algorithms() -> Vec<Box<dyn Algorithm>> {
        vec![
            Box::new(BruteForce),
            Box::new(TextFirst),
            Box::new(IknnBaseline::default()),
            Box::new(Expansion::default()),
            Box::new(Expansion::new(Scheduler::RoundRobin)),
            Box::new(Expansion::new(Scheduler::MinRadius)),
        ]
    }

    /// All algorithms must return the same ranking as the brute-force
    /// oracle on randomized datasets and queries — the paper's correctness
    /// claim.
    #[test]
    fn all_algorithms_agree_with_the_oracle() {
        for seed in 0..3u64 {
            let ds = Dataset::build(&DatasetConfig::small(60, seed)).unwrap();
            let tidx: TimestampIndex<TrajectoryId> = ds.store.build_timestamp_index();
            let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
                .with_keyword_index(&ds.keyword_index)
                .with_timestamp_index(&tidx);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            let specs = workload::generate(
                &ds,
                &workload::WorkloadConfig {
                    num_queries: 4,
                    locations_per_query: 3,
                    keywords_per_query: 3,
                    seed: seed ^ 0xabc,
                    ..Default::default()
                },
            );
            for spec in specs {
                let k = rng.gen_range(1..=5);
                let lambda = [0.1, 0.5, 0.9][rng.gen_range(0..3usize)];
                let query = UotsQuery::with_options(
                    spec.locations.clone(),
                    spec.keywords.clone(),
                    vec![],
                    QueryOptions {
                        weights: crate::Weights::lambda(lambda).unwrap(),
                        k,
                        ..Default::default()
                    },
                )
                .unwrap();
                let oracle = BruteForce.run(&db, &query).unwrap();
                for algo in algorithms() {
                    let got = algo.run(&db, &query).unwrap();
                    assert_eq!(
                        got.ids(),
                        oracle.ids(),
                        "{} disagrees (seed {seed}, k {k}, λ {lambda})",
                        algo.name()
                    );
                    for (a, b) in got.matches.iter().zip(oracle.matches.iter()) {
                        assert!(
                            (a.similarity - b.similarity).abs() < 1e-9,
                            "{}: {} vs {}",
                            algo.name(),
                            a.similarity,
                            b.similarity
                        );
                    }
                    assert!(got.is_ranked(), "{}", algo.name());
                }
            }
        }
    }

    /// The expansion algorithm must visit (usually far) fewer trajectories
    /// than the brute force on a localized query.
    #[test]
    fn expansion_prunes_relative_to_brute_force() {
        let ds = Dataset::build(&DatasetConfig::small(150, 11)).unwrap();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let specs = workload::generate(
            &ds,
            &workload::WorkloadConfig {
                num_queries: 8,
                locations_per_query: 3,
                locality_km: 1.5,
                ..Default::default()
            },
        );
        let mut expansion_visits = 0usize;
        let mut brute_visits = 0usize;
        for spec in specs {
            let query = UotsQuery::new(spec.locations, spec.keywords).unwrap();
            expansion_visits += Expansion::default()
                .run(&db, &query)
                .unwrap()
                .metrics
                .visited_trajectories;
            brute_visits += BruteForce
                .run(&db, &query)
                .unwrap()
                .metrics
                .visited_trajectories;
        }
        assert!(
            expansion_visits < brute_visits,
            "expansion {expansion_visits} vs brute {brute_visits}"
        );
    }

    #[test]
    fn temporal_queries_agree_with_oracle() {
        let ds = Dataset::build(&DatasetConfig::small(50, 21)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index)
            .with_timestamp_index(&tidx);
        let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
        let query = UotsQuery::with_options(
            spec.locations.clone(),
            spec.keywords.clone(),
            vec![30_000.0, 60_000.0],
            QueryOptions {
                weights: crate::Weights::new(0.4, 0.3, 0.3).unwrap(),
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let oracle = BruteForce.run(&db, &query).unwrap();
        let got = Expansion::default().run(&db, &query).unwrap();
        assert_eq!(got.ids(), oracle.ids());
        for (a, b) in got.matches.iter().zip(oracle.matches.iter()) {
            assert!((a.similarity - b.similarity).abs() < 1e-9);
        }
    }
}
