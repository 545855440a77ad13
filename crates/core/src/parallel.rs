//! Parallel batch query execution, hardened for production use.
//!
//! UOTS trajectory searches are independent of each other — the property the
//! paper exploits for parallelism ("the search processes of different
//! trajectories are independent, enabling parallel processing", with a merge
//! cost uncorrelated to the thread count; in the *search* setting there is
//! nothing to merge at all). This module fans a batch of queries over a
//! rayon thread pool and preserves input order in the output.
//!
//! The hardened entry point is [`run_batch_with`]:
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
use crate::{CoreError, Database, QueryResult, SearchMetrics, UotsQuery};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use uots_obs::{Counter, Gauge, Histogram, MetricsRegistry, Recorder, TailSampler};

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

/// Knobs for [`run_batch_with`].
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

/// Telemetry hooks for batch execution, backed by a shared
/// [`MetricsRegistry`].
///
/// Construct one per registry and pass it to [`run_batch_observed`]. The
/// observer registers:
///
/// - `uots_batch_pending_queries` (gauge) — admitted queries a worker has
///   not picked up yet (the queue depth);
/// - `uots_batch_inflight_queries` (gauge) — queries currently executing;
/// - `uots_batch_queries_total{outcome=…}` (counters) — finished queries by
///   outcome (`completed`, `interrupted`, `failed`, `panicked`);
/// - `uots_batch_rejected_total` (counter) — batches refused by the
///   admission bound before any work started;
/// - `uots_query_latency_us` (histogram) — per-query wall-clock latency;
/// - `uots_query_phase_duration_ns{phase=…}` (histograms) — per-phase time,
///   recorded from the per-query [`Recorder`] the observed runner enables.
///
/// All handles are atomics/mutexes shared with the registry, so gauges stay
/// correct even when queries panic (the panicking worker is isolated and
/// its in-flight decrement still runs in the caller).
pub struct BatchObserver {
    registry: MetricsRegistry,
    pending: Gauge,
    inflight: Gauge,
    completed: Counter,
    interrupted: Counter,
    failed: Counter,
    panicked: Counter,
    rejected: Counter,
    latency_us: Histogram,
    sampler: Option<TailSampler>,
}

impl BatchObserver {
    /// Registers the batch metric families in `registry` (idempotent: a
    /// second observer on the same registry shares the same underlying
    /// metrics).
    pub fn new(registry: &MetricsRegistry) -> Self {
        let outcome = |o: &str| {
            registry.counter_with(
                "uots_batch_queries_total",
                "Finished batch queries by outcome",
                &[("outcome", o)],
            )
        };
        BatchObserver {
            registry: registry.clone(),
            pending: registry.gauge(
                "uots_batch_pending_queries",
                "Admitted queries not yet picked up by a worker",
            ),
            inflight: registry.gauge("uots_batch_inflight_queries", "Queries currently executing"),
            completed: outcome("completed"),
            interrupted: outcome("interrupted"),
            failed: outcome("failed"),
            panicked: outcome("panicked"),
            rejected: registry.counter(
                "uots_batch_rejected_total",
                "Batches refused by the admission bound",
            ),
            latency_us: registry.histogram(
                "uots_query_latency_us",
                "Per-query wall-clock latency in microseconds",
            ),
            sampler: None,
        }
    }

    /// Attaches a [`TailSampler`]: every observed query feeds its latency
    /// and outcome into the sampler, and — when the sampler was built with
    /// tracing ([`TailSampler::with_tracing`]) — runs under a tracing
    /// recorder so slow/best-effort/errored queries keep full
    /// [`QueryTrace`](uots_obs::QueryTrace) exemplars.
    pub fn with_sampler(mut self, sampler: TailSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// The attached tail sampler, if any.
    pub fn sampler(&self) -> Option<&TailSampler> {
        self.sampler.as_ref()
    }

    fn on_admitted(&self, n: usize) {
        self.pending.add(i64::try_from(n).unwrap_or(i64::MAX));
    }

    fn on_start(&self) {
        self.pending.dec();
        self.inflight.inc();
    }

    fn on_finish(&self, result: &Result<QueryResult, CoreError>, elapsed: Duration) {
        self.inflight.dec();
        self.latency_us
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        match result {
            Ok(r) => {
                if r.completeness.is_exact() {
                    self.completed.inc();
                } else {
                    self.interrupted.inc();
                }
                self.registry.observe_phases(
                    "uots_query_phase_duration_ns",
                    "Per-query time attributed to each search phase (ns)",
                    &r.metrics.phases,
                );
            }
            Err(CoreError::QueryPanicked(_)) => self.panicked.inc(),
            Err(_) => self.failed.inc(),
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

fn run_isolated<A: Algorithm + ?Sized>(
    db: &Database<'_>,
    algorithm: &A,
    query: &UotsQuery,
    ctl: &RunControl,
    ctx: &SearchContext,
) -> Result<QueryResult, CoreError> {
    isolated(|| algorithm.run_ctx(db, query, ctl, &mut Recorder::disabled(), ctx))
}

/// [`run_isolated`], optionally reporting to an observer. Observed queries
/// run under a phases-only [`Recorder`] so their `metrics.phases` breakdown
/// is populated; unobserved queries keep the zero-cost disabled recorder.
/// When the observer carries a tracing [`TailSampler`], queries run under a
/// tracing recorder instead and the finished trace is offered to the
/// sampler (kept only for slow/best-effort/errored queries).
fn run_observed<A: Algorithm + ?Sized>(
    db: &Database<'_>,
    algorithm: &A,
    query: &UotsQuery,
    ctl: &RunControl,
    obs: Option<&BatchObserver>,
    ctx: &SearchContext,
) -> Result<QueryResult, CoreError> {
    let Some(obs) = obs else {
        return run_isolated(db, algorithm, query, ctl, ctx);
    };
    let trace_spans = obs.sampler.as_ref().and_then(|s| s.trace_spans());
    obs.on_start();
    let start = Instant::now();
    let (result, trace) = catch_unwind(AssertUnwindSafe(|| {
        let mut rec = match trace_spans {
            Some(cap) => Recorder::tracing(algorithm.name(), cap),
            None => Recorder::phases_only(algorithm.name()),
        };
        let result = algorithm.run_ctx(db, query, ctl, &mut rec, ctx);
        let trace = rec.finish().and_then(|report| report.trace);
        (result, trace)
    }))
    .unwrap_or_else(|payload| (Err(CoreError::QueryPanicked(panic_message(payload))), None));
    let elapsed = start.elapsed();
    obs.on_finish(&result, elapsed);
    if let Some(sampler) = &obs.sampler {
        let latency_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let (best_effort, errored) = match &result {
            Ok(r) => (!r.completeness.is_exact(), false),
            Err(_) => (false, true),
        };
        sampler.observe(&query.summary(), latency_us, best_effort, errored, trace);
    }
    result
}

/// Runs `queries` over `db` with `algorithm` under the given batch options
/// and a shared cancellation token, returning per-query outcomes in input
/// order.
///
/// Cancelling `token` mid-batch makes in-flight and not-yet-started queries
/// return empty best-effort results; it is cloned into every query's
/// [`RunControl`] together with the batch deadline (if any).
///
/// # Errors
///
/// Batch-level errors (the outer `Result`): pool construction failure,
/// [`CoreError::Overloaded`] from the admission bound, and — under
/// [`BatchPolicy::FailFast`] — the first per-query error by input order.
/// Under [`BatchPolicy::Partial`], per-query errors (including
/// [`CoreError::QueryPanicked`]) stay in their slot of the inner `Vec`.
pub fn run_batch_with<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    run_batch_inner(
        db,
        algorithm,
        queries,
        opts,
        token,
        None,
        &SearchContext::default(),
    )
}

/// [`run_batch_with`] under a shared [`SearchContext`]: every query in the
/// batch probes and feeds the *same* distance cache, so one query's settled
/// frontiers become the next query's replayed prefix. Results are identical
/// to the uncached batch (the cache trades work, never answers); only the
/// per-query metrics and wall-clock change.
///
/// # Errors
///
/// See [`run_batch_with`].
pub fn run_batch_ctx<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    ctx: &SearchContext,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    run_batch_inner(db, algorithm, queries, opts, token, None, ctx)
}

/// [`run_batch_with`] reporting queue depth, in-flight count, per-outcome
/// counters, latency, and per-phase durations to `obs`. Error semantics are
/// identical; the observer keeps counting even when the batch as a whole
/// fails (fail-fast) or is rejected by admission — that is the point of it.
///
/// # Errors
///
/// See [`run_batch_with`].
pub fn run_batch_observed<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    obs: &BatchObserver,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    run_batch_inner(
        db,
        algorithm,
        queries,
        opts,
        token,
        Some(obs),
        &SearchContext::default(),
    )
}

/// [`run_batch_ctx`] over a sharded cut: each query is one
/// [`ClusterSnapshot::search_ctx`] walk, sequential across its shards, so
/// the batch's parallelism comes from running whole queries on the pool —
/// exactly as on a single store. Same admission bound, deadline, token,
/// panic isolation and input-order slots.
///
/// # Errors
///
/// See [`run_batch_with`].
pub fn run_batch_cluster<A: Algorithm + Sync>(
    cut: &ClusterSnapshot,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    ctx: &SearchContext,
) -> Result<Vec<Result<ShardedAnswer, CoreError>>, CoreError> {
    fan_out(queries, opts, token, None, |q, ctl| {
        isolated(|| cut.search_ctx(algorithm, q, ctl, ctx))
    })
}

fn run_batch_inner<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    obs: Option<&BatchObserver>,
    ctx: &SearchContext,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    fan_out(queries, opts, token, obs, |q, ctl| {
        run_observed(db, algorithm, q, ctl, obs, ctx)
    })
}

/// The batch executor proper: admission bound, pool, the batch's
/// [`RunControl`], one `run` per query in input order, fail-fast policy.
fn fan_out<T: Send>(
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    obs: Option<&BatchObserver>,
    run: impl Fn(&UotsQuery, &RunControl) -> Result<T, CoreError> + Sync,
) -> Result<Vec<Result<T, CoreError>>, CoreError> {
    if let Some(cap) = opts.max_batch {
        if queries.len() > cap {
            if let Some(o) = obs {
                o.rejected.inc();
            }
            return Err(CoreError::Overloaded {
                submitted: queries.len(),
                capacity: cap,
            });
        }
    }
    if let Some(o) = obs {
        o.on_admitted(queries.len());
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
/// `threads` workers, returning per-query results in input order.
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
    run_batch_with(
        db,
        algorithm,
        queries,
        &BatchOptions::fail_fast(threads),
        &CancellationToken::new(),
    )?
    .into_iter()
    .collect()
}

/// Convenience: runs a batch and aggregates the per-query metrics.
///
/// # Errors
///
/// Same as [`run_batch`].
pub fn run_batch_aggregated<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    threads: usize,
) -> Result<(Vec<QueryResult>, SearchMetrics), CoreError> {
    let results = run_batch(db, algorithm, queries, threads)?;
    let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
    Ok((results, agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Expansion;
    use crate::epoch::{EpochManager, EpochSnapshot};
    use crate::testing::{FaultyAlgorithm, SlowAlgorithm};
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
        let (results, agg) = run_batch_aggregated(&db, &algo, &queries, 2).unwrap();
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
        let out = run_batch_with(
            &db,
            &algo,
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
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
        let err = run_batch_with(
            &db,
            &algo,
            &queries,
            &BatchOptions::fail_fast(1),
            &CancellationToken::new(),
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
        let err = run_batch_with(
            &db,
            &Expansion::default(),
            &queries,
            &opts,
            &CancellationToken::new(),
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
        let opts = BatchOptions {
            deadline: Some(Duration::from_millis(20)),
            ..BatchOptions::partial(2)
        };
        let out = run_batch_with(&db, &algo, &queries, &opts, &CancellationToken::new()).unwrap();
        assert_eq!(out.len(), queries.len());
        for r in &out {
            let r = r.as_ref().unwrap();
            assert!(!r.completeness.is_exact(), "deadline must interrupt");
        }
    }

    #[test]
    fn observer_isolates_a_panic_and_drains_its_gauges() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let out = run_batch_observed(
            &db,
            &algo,
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
            &obs,
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        let snap = registry.snapshot();
        let outcome = |o| snap.counter("uots_batch_queries_total", &[("outcome", o)]);
        assert_eq!(outcome("panicked"), Some(1));
        assert_eq!(outcome("completed"), Some(queries.len() as u64 - 1));
        // both gauges must return to zero: the panicking slot's in-flight
        // decrement runs in the caller, outside the unwound closure
        assert_eq!(snap.gauge("uots_batch_pending_queries", &[]), Some(0));
        assert_eq!(snap.gauge("uots_batch_inflight_queries", &[]), Some(0));
        // every query (panicked included) got a latency observation
        let latency = snap.histogram("uots_query_latency_us", &[]).unwrap();
        assert_eq!(latency.count, queries.len() as u64);
    }

    #[test]
    fn phase_durations_survive_batch_execution_and_reach_the_registry() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let out = run_batch_observed(
            &db,
            &Expansion::default(),
            &queries,
            &BatchOptions::partial(3),
            &CancellationToken::new(),
            &obs,
        )
        .unwrap();
        // every per-query result carries its phase breakdown through the
        // parallel executor, and the aggregate keeps it additive
        let results: Vec<QueryResult> = out.into_iter().map(Result::unwrap).collect();
        for r in &results {
            assert!(
                !r.metrics.phases.is_zero(),
                "observed batch runs must record phases"
            );
        }
        let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
        assert!(agg.phases.total() >= results[0].metrics.phases.total());
        // and the registry collected a per-phase histogram family
        let snap = registry.snapshot();
        let network = snap
            .histogram(
                "uots_query_phase_duration_ns",
                &[("phase", "network_expansion")],
            )
            .expect("expansion queries spend time in network_expansion");
        assert_eq!(network.count, queries.len() as u64);
    }

    #[test]
    fn observer_keeps_counting_under_fail_fast_and_admission_rejection() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "boom");
        let err = run_batch_observed(
            &db,
            &algo,
            &queries,
            &BatchOptions::fail_fast(1),
            &CancellationToken::new(),
            &obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::QueryPanicked(_)));
        // the batch failed as a whole, but the telemetry of what actually
        // ran must not be lost with it
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("uots_batch_queries_total", &[("outcome", "panicked")]),
            Some(1)
        );
        assert_eq!(snap.gauge("uots_batch_inflight_queries", &[]), Some(0));

        let opts = BatchOptions {
            max_batch: Some(2),
            ..BatchOptions::partial(1)
        };
        let err = run_batch_observed(
            &db,
            &Expansion::default(),
            &queries,
            &opts,
            &CancellationToken::new(),
            &obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Overloaded { .. }));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("uots_batch_rejected_total", &[]), Some(1));
        // a rejected batch never touches the queue-depth gauge
        assert_eq!(snap.gauge("uots_batch_pending_queries", &[]), Some(0));
    }

    #[test]
    fn interrupted_counts_survive_deadline_under_both_policies() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index);
        let algo = SlowAlgorithm::new(Expansion::default(), Duration::from_secs(3600));
        for opts in [
            BatchOptions {
                deadline: Some(Duration::from_millis(20)),
                ..BatchOptions::partial(2)
            },
            BatchOptions {
                deadline: Some(Duration::from_millis(20)),
                ..BatchOptions::fail_fast(2)
            },
        ] {
            let registry = uots_obs::MetricsRegistry::default();
            let obs = BatchObserver::new(&registry);
            let out =
                run_batch_observed(&db, &algo, &queries, &opts, &CancellationToken::new(), &obs)
                    .unwrap();
            let results: Vec<QueryResult> = out.into_iter().map(Result::unwrap).collect();
            let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
            // a deadline is an interruption, not an error: FailFast has
            // nothing to fail on, and each slot's metrics record it
            assert_eq!(agg.interrupted, queries.len(), "{opts:?}");
            assert_eq!(
                registry
                    .snapshot()
                    .counter("uots_batch_queries_total", &[("outcome", "interrupted")]),
                Some(queries.len() as u64),
                "{opts:?}"
            );
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
        let out = run_batch_with(
            &db,
            &Expansion::default(),
            &queries,
            &BatchOptions::partial(2),
            &token,
        )
        .unwrap();
        for r in &out {
            let r = r.as_ref().unwrap();
            assert!(!r.completeness.is_exact());
            assert!(r.matches.is_empty());
        }
    }
}
