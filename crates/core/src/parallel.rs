//! Parallel batch query execution, hardened for production use.
//!
//! UOTS trajectory searches are independent of each other — the property the
//! paper exploits for parallelism ("the search processes of different
//! trajectories are independent, enabling parallel processing", with a merge
//! cost uncorrelated to the thread count; in the *search* setting there is
//! nothing to merge at all). This module fans a batch of queries over a
//! rayon thread pool and preserves input order in the output.
//!
//! The hardened entry points are [`run_batch_ctx`] (over a [`Database`])
//! and [`run_batch_cluster`] (over a sharded cut); [`run_batch`] is the
//! zero-configuration convenience over the former.
//!
//! - **Panic isolation** — a query whose worker panics is reported as
//!   [`CoreError::QueryPanicked`] for that slot; the other queries in the
//!   batch still complete (under [`BatchPolicy::Partial`]).
//! - **Batch deadlines** — [`BatchOptions::deadline`] folds a per-batch
//!   wall-clock limit into each query's [`RunControl`], so in-flight
//!   queries cancel cooperatively and return certified best-effort results
//!   instead of running away.
//! - **Bounded admission** — [`BatchOptions::max_batch`] rejects oversized
//!   batches up front with [`CoreError::Overloaded`] rather than queueing
//!   unbounded work.

use crate::algorithms::Algorithm;
use crate::budget::{CancellationToken, RunControl};
use crate::distcache::SearchContext;
use crate::shard::{ClusterSnapshot, ShardedAnswer};
use crate::{CoreError, Database, QueryResult, UotsQuery};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use uots_obs::Recorder;

/// How a batch reacts to a failing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// The first error (by input order) fails the whole batch.
    #[default]
    FailFast,
    /// Every query gets a slot; failures are reported per slot and do not
    /// affect their neighbours.
    Partial,
}

/// Knobs for [`run_batch_ctx`] and [`run_batch_cluster`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Failure handling across the batch.
    pub policy: BatchPolicy,
    /// Wall-clock limit for the whole batch; queries still in flight when
    /// it expires are cancelled cooperatively and return best-effort
    /// results (they do **not** error).
    pub deadline: Option<Duration>,
    /// Admission bound: batches larger than this are rejected with
    /// [`CoreError::Overloaded`] before any work starts.
    pub max_batch: Option<usize>,
    /// Worker threads (0 and 1 both mean sequential-through-the-pool).
    pub threads: usize,
}

impl BatchOptions {
    /// Fail-fast execution on `threads` workers, no deadline, no admission
    /// bound — the behaviour of the plain [`run_batch`].
    pub fn fail_fast(threads: usize) -> Self {
        BatchOptions {
            policy: BatchPolicy::FailFast,
            threads,
            ..Default::default()
        }
    }

    /// Partial execution on `threads` workers.
    pub fn partial(threads: usize) -> Self {
        BatchOptions {
            policy: BatchPolicy::Partial,
            threads,
            ..Default::default()
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one query's work, turning a panic into that query's
/// [`CoreError::QueryPanicked`].
fn isolated<T>(run: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|payload| Err(CoreError::QueryPanicked(panic_message(payload))))
}

/// Runs `queries` over `db` with `algorithm` under the given batch options,
/// a shared cancellation token and a shared [`SearchContext`], returning
/// per-query outcomes in input order.
///
/// Cancelling `token` mid-batch makes in-flight and not-yet-started queries
/// return empty best-effort results; it is cloned into every query's
/// [`RunControl`] together with the batch deadline (if any).
///
/// Every query in the batch probes and feeds the *same* distance cache (if
/// `ctx` carries one), so one query's settled frontiers become the next
/// query's replayed prefix. Results are identical to the batch under the
/// empty context (the cache trades work, never answers); only the
/// per-query metrics and wall-clock change.
///
/// # Errors
///
/// Batch-level errors (the outer `Result`): pool construction failure,
/// [`CoreError::Overloaded`] from the admission bound, and — under
/// [`BatchPolicy::FailFast`] — the first per-query error by input order.
/// Under [`BatchPolicy::Partial`], per-query errors (including
/// [`CoreError::QueryPanicked`]) stay in their slot of the inner `Vec`.
pub fn run_batch_ctx<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    ctx: &SearchContext,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    fan_out(queries, opts, token, |q, ctl| {
        isolated(|| algorithm.run_ctx(db, q, ctl, &mut Recorder::disabled(), ctx))
    })
}

/// [`run_batch_ctx`] over a sharded cut: each query is one
/// [`ClusterSnapshot::search_ctx`] walk, sequential across its shards, so
/// the batch's parallelism comes from running whole queries on the pool —
/// exactly as on a single store. Same admission bound, deadline, token,
/// panic isolation and input-order slots.
///
/// # Errors
///
/// See [`run_batch_ctx`].
pub fn run_batch_cluster<A: Algorithm + Sync>(
    cut: &ClusterSnapshot,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    ctx: &SearchContext,
) -> Result<Vec<Result<ShardedAnswer, CoreError>>, CoreError> {
    fan_out(queries, opts, token, |q, ctl| {
        isolated(|| cut.search_ctx(algorithm, q, ctl, ctx))
    })
}

/// The batch executor proper: admission bound, pool, the batch's
/// [`RunControl`], one `run` per query in input order, fail-fast policy.
fn fan_out<T: Send>(
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    run: impl Fn(&UotsQuery, &RunControl) -> Result<T, CoreError> + Sync,
) -> Result<Vec<Result<T, CoreError>>, CoreError> {
    if let Some(cap) = opts.max_batch {
        if queries.len() > cap {
            return Err(CoreError::Overloaded {
                submitted: queries.len(),
                capacity: cap,
            });
        }
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads.max(1))
        .build()
        .map_err(|e| CoreError::BadParameter(format!("thread pool: {e}")))?;
    let mut ctl = RunControl::with_token(token.clone());
    if let Some(d) = opts.deadline {
        ctl = ctl.with_deadline(Instant::now() + d);
    }
    let results: Vec<Result<T, CoreError>> =
        pool.install(|| queries.par_iter().map(|q| run(q, &ctl)).collect());
    if opts.policy == BatchPolicy::FailFast {
        if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(err.clone());
        }
    }
    Ok(results)
}

/// Runs `queries` over `db` with `algorithm` on a dedicated pool of
/// `threads` workers, returning per-query results in input order: the
/// fail-fast, unbounded [`run_batch_ctx`] under the empty context.
///
/// `threads = 1` degenerates to sequential execution (still through the
/// pool, so scheduling overhead is measured honestly in the thread-scaling
/// experiment).
///
/// # Errors
///
/// Returns the first query error encountered (by input order) — including
/// [`CoreError::QueryPanicked`] if a worker panics. Pool construction
/// failures are reported as [`CoreError::BadParameter`].
pub fn run_batch<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    threads: usize,
) -> Result<Vec<QueryResult>, CoreError> {
    run_batch_ctx(
        db,
        algorithm,
        queries,
        &BatchOptions::fail_fast(threads),
        &CancellationToken::new(),
        &SearchContext::default(),
    )?
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Expansion;
    use crate::epoch::{EpochManager, EpochSnapshot};
    use crate::testing::{FaultyAlgorithm, SlowAlgorithm};
    use crate::SearchMetrics;
    use std::sync::Arc;
    use uots_datagen::{workload, Dataset, DatasetConfig};

    fn setup() -> (Dataset, Vec<UotsQuery>) {
        let ds = Dataset::build(&DatasetConfig::small(80, 31)).unwrap();
        let specs = workload::generate(
            &ds,
            &workload::WorkloadConfig {
                num_queries: 12,
                ..Default::default()
            },
        );
        let queries = specs
            .into_iter()
            .map(|s| UotsQuery::new(s.locations, s.keywords).unwrap())
            .collect();
        (ds, queries)
    }

    #[test]
    fn parallel_results_match_sequential() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let algo = Expansion::default();
        let seq = run_batch(&db, &algo, &queries, 1).unwrap();
        let par = run_batch(&db, &algo, &queries, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.ids(), b.ids());
            assert_eq!(
                a.metrics.visited_trajectories,
                b.metrics.visited_trajectories
            );
        }
    }

    #[test]
    fn aggregation_sums_per_query_metrics() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let algo = Expansion::default();
        let results = run_batch(&db, &algo, &queries, 2).unwrap();
        let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
        assert_eq!(agg.queries, queries.len());
        let manual: usize = results.iter().map(|r| r.metrics.visited_trajectories).sum();
        assert_eq!(agg.visited_trajectories, manual);
    }

    #[test]
    fn errors_propagate() {
        let (ds, _) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let bad = UotsQuery::new(
            vec![uots_network::NodeId(1_000_000)],
            uots_text::KeywordSet::empty(),
        )
        .unwrap();
        let err = run_batch(&db, &Expansion::default(), &[bad], 2);
        assert!(err.is_err());
    }

    #[test]
    fn partial_policy_isolates_a_panicking_query() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let out = run_batch_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
            &SearchContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        // threads=1 makes call order deterministic: exactly slot 0 panicked
        assert!(matches!(out[0], Err(CoreError::QueryPanicked(_))));
        for (i, r) in out.iter().enumerate().skip(1) {
            assert!(r.is_ok(), "slot {i} must survive the panic in slot 0");
        }
    }

    #[test]
    fn fail_fast_policy_surfaces_the_panic_as_an_error() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let err = run_batch_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::fail_fast(1),
            &CancellationToken::new(),
            &SearchContext::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::QueryPanicked(ref m) if m.contains("injected")));
    }

    #[test]
    fn admission_bound_rejects_oversized_batches() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let opts = BatchOptions {
            max_batch: Some(4),
            ..BatchOptions::partial(2)
        };
        let err = run_batch_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &opts,
            &CancellationToken::new(),
            &SearchContext::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Overloaded {
                submitted: 12,
                capacity: 4
            }
        ));
    }

    #[test]
    fn batch_deadline_cancels_in_flight_queries() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let algo = SlowAlgorithm::new(Expansion::default(), Duration::from_secs(3600));
        // a deadline is an interruption, not an error: FailFast has nothing
        // to fail on, and each slot's metrics record it
        for base in [BatchOptions::partial(2), BatchOptions::fail_fast(2)] {
            let opts = BatchOptions {
                deadline: Some(Duration::from_millis(20)),
                ..base
            };
            let out = run_batch_ctx(
                &db,
                &algo,
                &queries,
                &opts,
                &CancellationToken::new(),
                &SearchContext::new(),
            )
            .unwrap();
            let results: Vec<QueryResult> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(results.len(), queries.len());
            for r in &results {
                assert!(!r.completeness.is_exact(), "deadline must interrupt");
            }
            let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
            assert_eq!(agg.interrupted, queries.len(), "{opts:?}");
        }
    }

    #[test]
    fn shared_cache_batches_return_identical_results() {
        use crate::distcache::DistanceCache;
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let algo = Expansion::default();
        let baseline = run_batch(&db, &algo, &queries, 2).unwrap();
        for threads in [1, 4] {
            let cache = Arc::new(DistanceCache::new(1 << 16));
            let ctx = SearchContext::with_cache(Arc::clone(&cache));
            let cached = run_batch_ctx(
                &db,
                &algo,
                &queries,
                &BatchOptions::fail_fast(threads),
                &CancellationToken::new(),
                &ctx,
            )
            .unwrap();
            for (a, b) in baseline.iter().zip(cached.iter()) {
                let b = b.as_ref().unwrap();
                assert_eq!(a.ids(), b.ids(), "threads = {threads}");
                for (ma, mb) in a.matches.iter().zip(b.matches.iter()) {
                    assert_eq!(ma.similarity.to_bits(), mb.similarity.to_bits());
                }
            }
            let stats = cache.stats();
            assert!(stats.inserts > 0, "the batch must warm the cache");
        }
    }

    #[test]
    fn a_pinned_snapshot_answers_unchanged_across_publishes() {
        let (ds, queries) = setup();
        let mgr = EpochManager::new(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.len(),
        );
        let algo = Expansion::default();
        let ctx = SearchContext::default();
        let batch = |snap: &EpochSnapshot| {
            run_batch_ctx(
                &snap.database(),
                &algo,
                &queries,
                &BatchOptions::fail_fast(3),
                &CancellationToken::new(),
                &ctx,
            )
            .unwrap()
        };
        let snap0 = mgr.snapshot();
        assert_eq!(snap0.epoch(), 0);
        let out0 = batch(&snap0);

        // churn: retire the top answer of the first query, publish
        let victim = out0[0].as_ref().unwrap().ids()[0];
        mgr.retire(victim);
        mgr.publish();
        let snap1 = mgr.snapshot();
        assert_eq!(snap1.epoch(), 1);
        let out1 = batch(&snap1);
        assert!(
            !out1[0].as_ref().unwrap().ids().contains(&victim),
            "retired id served"
        );

        // the pinned pre-churn snapshot still answers exactly as before —
        // publishes never invalidate a batch's epoch
        let replay = run_batch(&snap0.database(), &algo, &queries, 2).unwrap();
        for (a, b) in out0.iter().zip(replay.iter()) {
            assert_eq!(a.as_ref().unwrap().ids(), b.ids());
        }
    }

    #[test]
    fn shared_token_cancels_the_whole_batch() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let token = CancellationToken::new();
        token.cancel();
        let out = run_batch_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &BatchOptions::partial(2),
            &token,
            &SearchContext::new(),
        )
        .unwrap();
        for r in &out {
            let r = r.as_ref().unwrap();
            assert!(!r.completeness.is_exact());
            assert!(r.matches.is_empty());
        }
    }
}
