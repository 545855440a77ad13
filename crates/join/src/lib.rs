//! # uots-join
//!
//! Trajectory similarity **threshold self-join** in spatial networks — the
//! companion operation of the UOTS search and this reproduction's
//! implementation of the paper family's stated follow-on direction: given a
//! set `P` of network-constrained, timestamped trajectories and a threshold
//! `θ`, return every pair `(τ₁, τ₂)` whose symmetric spatiotemporal
//! similarity (see [`similarity`]) reaches `θ`.
//!
//! Applications (from the paper family): trajectory near-duplicate
//! detection and data cleaning, ridesharing / carpooling partner
//! recommendation, frequent-route mining and congestion prediction.
//!
//! ## Algorithm — two-phase divide and conquer
//!
//! 1. **Trajectory-search phase** (parallel over probes, rayon): for each
//!    trajectory τ, a [`search`](crate::search) worker expands the network
//!    from every distinct sample vertex of τ and the time axis from every
//!    distinct timestamp, pruning with per-pair upper bounds (first half
//!    exact or radius-bounded, second half bounded by the paper's Lemma-1
//!    trick) and collecting **candidates**: partners whose bound reaches θ,
//!    each carrying τ's exact directed *half* of the pair similarity.
//! 2. **Merging phase** (hash join, cost independent of the thread count):
//!    a pair qualifies iff each side appears in the other's candidate set;
//!    its exact similarity is simply the sum of the two stored halves — no
//!    further network distances are computed.
//!
//! ```
//! use uots_datagen::{Dataset, DatasetConfig};
//! use uots_join::{ts_join, JoinConfig};
//!
//! let ds = Dataset::build(&DatasetConfig::small(60, 5)).unwrap();
//! let tidx = ds.store.build_timestamp_index();
//! let cfg = JoinConfig { theta: 0.6, ..Default::default() };
//! let result = ts_join(&ds.network, &ds.store, &ds.vertex_index, &tidx, &cfg, 2).unwrap();
//! for p in &result.pairs {
//!     assert!(p.similarity >= 0.6);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod search;
pub mod similarity;
pub mod topk;
pub mod two_set;

use rayon::prelude::*;
use search::{SearchStats, Worker};
use serde::{Deserialize, Serialize};
use similarity::Half;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uots_core::{Completeness, DistanceCache, ExecutionBudget, RunControl};
use uots_index::{TimestampIndex, VertexInvertedIndex};
use uots_network::dijkstra::shortest_path_tree;
use uots_network::RoadNetwork;
use uots_obs::{MetricsRegistry, Phase, PhaseNanos};
use uots_trajectory::{TrajectoryId, TrajectoryStore};

/// Join configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinConfig {
    /// Similarity threshold `θ ∈ (0, 1]`. (The paper family's `[0, 2]`
    /// range maps to this via division by two.)
    pub theta: f64,
    /// Spatial/temporal preference `λ ∈ [0, 1]`.
    pub lambda: f64,
    /// Spatial decay scale, kilometres.
    pub decay_km: f64,
    /// Temporal decay scale, seconds.
    pub decay_s: f64,
    /// Source scheduling within one trajectory search.
    pub scheduling: JoinScheduling,
    /// Upper limit on distinct sample vertices per trajectory (each one is
    /// a concurrent expansion with network-sized scratch). Trajectories
    /// exceeding it are rejected with [`JoinError::TooManySources`].
    pub max_sources: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            theta: 0.8,
            lambda: 0.5,
            decay_km: 1.0,
            decay_s: 1_800.0,
            scheduling: JoinScheduling::RoundRobin,
            max_sources: 128,
        }
    }
}

/// Expansion-source scheduling inside one trajectory search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinScheduling {
    /// Cycle through live sources (default).
    RoundRobin,
    /// Advance the source with the smallest normalized radius.
    MinRadius,
}

/// One qualifying pair, `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinPair {
    /// The smaller trajectory id.
    pub a: TrajectoryId,
    /// The larger trajectory id.
    pub b: TrajectoryId,
    /// Exact pair similarity, `≥ θ`.
    pub similarity: f64,
}

/// Join output: pairs plus effort counters.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Qualifying pairs, sorted by descending similarity then ids.
    pub pairs: Vec<JoinPair>,
    /// Total trajectories visited across all searches.
    pub visited_trajectories: usize,
    /// Total vertices settled across all searches.
    pub settled_vertices: usize,
    /// Total timestamps scanned across all searches.
    pub scanned_timestamps: usize,
    /// Total candidates generated (pre-merge).
    pub candidates: usize,
    /// Wall-clock time of the whole join.
    pub runtime: Duration,
    /// Macro-phase breakdown of `runtime`: the parallel candidate-search
    /// phase is attributed to [`Phase::NetworkExpansion`], the merge and
    /// pair-formation phase to [`Phase::JoinPair`]. Always populated — the
    /// cost is two timestamps per join.
    pub phases: PhaseNanos,
    /// [`Completeness::Exact`] when every probe ran to completion;
    /// otherwise a conservative certificate (see [`ts_join_with`]).
    pub completeness: Completeness,
}

/// Thread-safe interruption checker for the join's search phase. Probes
/// are coarse units of work (each expands a whole trajectory), so the gate
/// is consulted once per probe: cheap relative to the probe itself, and a
/// skipped probe only *removes* pairs — budgeted joins return a subset of
/// the exact answer.
pub(crate) struct JoinGate {
    token: uots_core::CancellationToken,
    deadline: Option<Instant>,
    max_visited: usize,
    max_settled: usize,
    visited: AtomicUsize,
    settled: AtomicUsize,
    tripped: AtomicBool,
}

impl JoinGate {
    pub(crate) fn new(budget: &ExecutionBudget, ctl: &RunControl) -> Self {
        let budget_deadline = budget.max_wall.map(|w| Instant::now() + w);
        let deadline = match (ctl.deadline(), budget_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        JoinGate {
            token: ctl.token().clone(),
            deadline,
            max_visited: budget.max_visited.unwrap_or(usize::MAX),
            max_settled: budget.max_settled.unwrap_or(usize::MAX),
            visited: AtomicUsize::new(0),
            settled: AtomicUsize::new(0),
            tripped: AtomicBool::new(ctl.is_cancelled()),
        }
    }

    /// Whether the next probe may run. Trips (stickily, across all
    /// workers) on cancellation, deadline expiry, or exhausted counters.
    pub(crate) fn admit(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return false;
        }
        let over = self.visited.load(Ordering::Relaxed) >= self.max_visited
            || self.settled.load(Ordering::Relaxed) >= self.max_settled
            || self.token.is_cancelled()
            || self.deadline.is_some_and(|d| Instant::now() >= d);
        if over {
            self.tripped.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Folds one probe's effort into the shared counters.
    pub(crate) fn record(&self, stats: &SearchStats) {
        self.visited.fetch_add(stats.visited, Ordering::Relaxed);
        self.settled.fetch_add(
            stats.settled_vertices + stats.scanned_timestamps,
            Ordering::Relaxed,
        );
    }

    pub(crate) fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// Errors from [`ts_join`].
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// θ or λ or a decay scale failed validation.
    BadParameter(String),
    /// A trajectory has more distinct sample vertices than
    /// [`JoinConfig::max_sources`].
    TooManySources {
        /// The offending trajectory.
        trajectory: TrajectoryId,
        /// Its distinct-vertex count.
        sources: usize,
    },
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::BadParameter(m) => write!(f, "bad join parameter: {m}"),
            JoinError::TooManySources {
                trajectory,
                sources,
            } => write!(
                f,
                "trajectory {trajectory} has {sources} distinct vertices; raise max_sources"
            ),
        }
    }
}

impl std::error::Error for JoinError {}

/// Validates the numeric configuration (shared with the non-self join).
pub(crate) fn validate_config(cfg: &JoinConfig) -> Result<(), JoinError> {
    if !(cfg.theta > 0.0 && cfg.theta <= 1.0) {
        return Err(JoinError::BadParameter(format!(
            "theta must be in (0, 1], got {}",
            cfg.theta
        )));
    }
    if !(0.0..=1.0).contains(&cfg.lambda) {
        return Err(JoinError::BadParameter(format!(
            "lambda must be in [0, 1], got {}",
            cfg.lambda
        )));
    }
    if cfg.decay_km <= 0.0 || cfg.decay_km.is_nan() || cfg.decay_s <= 0.0 || cfg.decay_s.is_nan() {
        return Err(JoinError::BadParameter(
            "decay scales must be positive".into(),
        ));
    }
    Ok(())
}

fn validate(cfg: &JoinConfig, store: &TrajectoryStore) -> Result<(), JoinError> {
    validate_config(cfg)?;
    for (id, t) in store.iter() {
        let distinct = similarity::distinct_nodes_weighted(t).0.len();
        if distinct > cfg.max_sources {
            return Err(JoinError::TooManySources {
                trajectory: id,
                sources: distinct,
            });
        }
    }
    Ok(())
}

/// The two-phase trajectory similarity self-join, unbudgeted and uncached.
///
/// `threads` sizes the rayon pool for the search phase (`1` = sequential).
/// Equivalent to [`ts_join_with`] under an unlimited budget; the result is
/// always [`Completeness::Exact`].
///
/// # Errors
///
/// See [`JoinError`].
pub fn ts_join(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    vertex_index: &VertexInvertedIndex<TrajectoryId>,
    timestamp_index: &TimestampIndex<TrajectoryId>,
    cfg: &JoinConfig,
    threads: usize,
) -> Result<JoinResult, JoinError> {
    ts_join_with(
        net,
        store,
        vertex_index,
        timestamp_index,
        cfg,
        threads,
        &ExecutionBudget::UNLIMITED,
        &RunControl::unbounded(),
        None,
    )
}

/// The two-phase trajectory similarity self-join under a budget, with an
/// optional shared distance cache.
///
/// The gate is consulted before each probe (one probe = one trajectory's
/// candidate search): on cancellation, deadline expiry, or an exhausted
/// counter, remaining probes are skipped across all workers. A skipped
/// probe can only *remove* pairs, so the budgeted answer is a **subset**
/// of the exact one and every reported pair's similarity is still exact
/// and `≥ θ`. The completeness certificate is conservative: a missed pair
/// exceeds `θ` by at most `1 − θ`, hence
/// `BestEffort { bound_gap: 1 − θ }` whenever any probe was skipped.
///
/// With `cache`, one [`DistanceCache`] is shared across every search
/// worker: each probe's spatial expansions replay cached prefixes and
/// publish their own back, so trajectories sharing sample vertices (the
/// common case — popular POIs) skip the shared head of each other's
/// Dijkstra work. The pair set is **identical** to the uncached join; the
/// cache trades settled-vertex work, never answers.
///
/// The outcome reaches a [`MetricsRegistry`] through
/// [`record_join_metrics`].
///
/// # Errors
///
/// See [`JoinError`]. Budget exhaustion is **not** an error.
#[allow(clippy::too_many_arguments)]
pub fn ts_join_with(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    vertex_index: &VertexInvertedIndex<TrajectoryId>,
    timestamp_index: &TimestampIndex<TrajectoryId>,
    cfg: &JoinConfig,
    threads: usize,
    budget: &ExecutionBudget,
    ctl: &RunControl,
    cache: Option<&Arc<DistanceCache>>,
) -> Result<JoinResult, JoinError> {
    validate(cfg, store)?;
    let start = Instant::now();
    let ids: Vec<TrajectoryId> = store.ids().collect();
    let gate = JoinGate::new(budget, ctl);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .map_err(|e| JoinError::BadParameter(format!("thread pool: {e}")))?;

    // --- phase 1: per-trajectory candidate searches (parallel) ---
    // Chunk the probes so each worker reuses its expansion scratch across
    // many searches instead of reallocating network-sized buffers.
    let mut phases = PhaseNanos::ZERO;
    let search_start = Instant::now();
    let chunk = ids.len().div_ceil(threads.max(1) * 4).max(1);
    type ChunkOut = (Vec<(TrajectoryId, Vec<search::Candidate>)>, SearchStats);
    let per_chunk: Vec<ChunkOut> = pool.install(|| {
        ids.par_chunks(chunk)
            .map(|probe_chunk| {
                let mut worker =
                    Worker::new(net, store, vertex_index, timestamp_index, cache.cloned());
                let mut stats = SearchStats::default();
                let mut out = Vec::with_capacity(probe_chunk.len());
                for &probe in probe_chunk {
                    if !gate.admit() {
                        break;
                    }
                    let (cands, s) = worker.search(cfg, probe);
                    gate.record(&s);
                    stats.visited += s.visited;
                    stats.settled_vertices += s.settled_vertices;
                    stats.scanned_timestamps += s.scanned_timestamps;
                    stats.candidates += s.candidates;
                    out.push((probe, cands));
                }
                (out, stats)
            })
            .collect()
    });

    phases.add(
        Phase::NetworkExpansion,
        u64::try_from(search_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );

    // --- phase 2: merge (constant relative to thread count) ---
    let merge_start = Instant::now();
    let mut candidate_maps: Vec<HashMap<TrajectoryId, Half>> = vec![HashMap::new(); store.len()];
    let mut totals = SearchStats::default();
    for (chunk_out, stats) in per_chunk {
        totals.visited += stats.visited;
        totals.settled_vertices += stats.settled_vertices;
        totals.scanned_timestamps += stats.scanned_timestamps;
        totals.candidates += stats.candidates;
        for (probe, cands) in chunk_out {
            let map = &mut candidate_maps[probe.index()];
            for c in cands {
                map.insert(c.other, c.half);
            }
        }
    }

    let mut pairs = Vec::new();
    for &a in &ids {
        for (&b, half_ab) in &candidate_maps[a.index()] {
            if b <= a {
                continue; // each unordered pair handled once, from its smaller id
            }
            if let Some(half_ba) = candidate_maps[b.index()].get(&a) {
                let sim = half_ab.value() + half_ba.value();
                if sim >= cfg.theta {
                    pairs.push(JoinPair {
                        a,
                        b,
                        similarity: sim,
                    });
                }
            }
        }
    }
    pairs.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| x.a.cmp(&y.a))
            .then_with(|| x.b.cmp(&y.b))
    });

    phases.add(
        Phase::JoinPair,
        u64::try_from(merge_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );

    let completeness = if gate.tripped() {
        Completeness::BestEffort {
            bound_gap: (1.0 - cfg.theta).clamp(0.0, 1.0),
        }
    } else {
        Completeness::Exact
    };
    Ok(JoinResult {
        pairs,
        visited_trajectories: totals.visited,
        settled_vertices: totals.settled_vertices,
        scanned_timestamps: totals.scanned_timestamps,
        candidates: totals.candidates,
        runtime: start.elapsed(),
        phases,
        completeness,
    })
}

/// Records a finished join's outcome into `registry`: per-phase duration
/// histograms (`uots_join_phase_duration_ns`, labeled by phase), a
/// whole-join latency histogram (`uots_join_latency_us`), and counters for
/// pairs emitted, candidates generated, trajectories visited, and
/// interrupted joins. Use one registry across many joins to accumulate
/// quantiles; export with [`MetricsRegistry::render_prometheus`] or
/// [`MetricsRegistry::render_json`].
pub fn record_join_metrics(registry: &MetricsRegistry, r: &JoinResult) {
    registry
        .counter("uots_join_pairs_total", "Qualifying pairs emitted by joins")
        .add(r.pairs.len() as u64);
    registry
        .counter(
            "uots_join_candidates_total",
            "Candidates generated by join searches (pre-merge)",
        )
        .add(r.candidates as u64);
    registry
        .counter(
            "uots_join_visited_trajectories_total",
            "Trajectories visited by join searches",
        )
        .add(r.visited_trajectories as u64);
    if !r.completeness.is_exact() {
        registry
            .counter(
                "uots_join_interrupted_total",
                "Joins interrupted by budget, deadline, or cancellation",
            )
            .inc();
    }
    registry
        .histogram("uots_join_latency_us", "Whole-join wall time, microseconds")
        .record(u64::try_from(r.runtime.as_micros()).unwrap_or(u64::MAX));
    registry.observe_phases(
        "uots_join_phase_duration_ns",
        "Join macro-phase durations, nanoseconds",
        &r.phases,
    );
}

/// Exhaustive oracle: evaluates every pair exactly. `O(|P|)` shortest-path
/// trees per trajectory vertex plus `O(|P|²)` evaluations — tests and tiny
/// datasets only.
pub fn ts_join_brute(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    cfg: &JoinConfig,
) -> Result<Vec<JoinPair>, JoinError> {
    validate(cfg, store)?;
    let ids: Vec<TrajectoryId> = store.ids().collect();
    // one directed half per trajectory toward every other
    let halves: Vec<Vec<Half>> = ids
        .iter()
        .map(|&a| {
            let ta = store.get(a);
            let (nodes, weights) = similarity::distinct_nodes_weighted(ta);
            let trees: Vec<_> = nodes.iter().map(|&v| shortest_path_tree(net, v)).collect();
            ids.iter()
                .map(|&b| similarity::exact_half(cfg, &trees, &weights, ta, store.get(b)))
                .collect()
        })
        .collect();
    let mut pairs = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for (j, &b) in ids.iter().enumerate().skip(i + 1) {
            let sim = halves[i][j].value() + halves[j][i].value();
            if sim >= cfg.theta {
                pairs.push(JoinPair {
                    a,
                    b,
                    similarity: sim,
                });
            }
        }
    }
    pairs.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| x.a.cmp(&y.a))
            .then_with(|| x.b.cmp(&y.b))
    });
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_datagen::{Dataset, DatasetConfig};

    fn join_all(ds: &Dataset, cfg: &JoinConfig, threads: usize) -> JoinResult {
        let tidx = ds.store.build_timestamp_index();
        ts_join(
            &ds.network,
            &ds.store,
            &ds.vertex_index,
            &tidx,
            cfg,
            threads,
        )
        .expect("join runs")
    }

    #[test]
    fn join_matches_brute_force_across_thetas_and_lambdas() {
        let ds = Dataset::build(&DatasetConfig::small(40, 13)).unwrap();
        for theta in [0.5, 0.7, 0.9] {
            for lambda in [0.2, 0.5, 0.8] {
                let cfg = JoinConfig {
                    theta,
                    lambda,
                    ..Default::default()
                };
                let fast = join_all(&ds, &cfg, 1);
                let brute = ts_join_brute(&ds.network, &ds.store, &cfg).unwrap();
                assert_eq!(
                    fast.pairs.len(),
                    brute.len(),
                    "θ={theta} λ={lambda}: {:?} vs {:?}",
                    fast.pairs,
                    brute
                );
                for (f, b) in fast.pairs.iter().zip(brute.iter()) {
                    assert_eq!((f.a, f.b), (b.a, b.b), "θ={theta} λ={lambda}");
                    assert!((f.similarity - b.similarity).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn parallel_join_equals_sequential() {
        let ds = Dataset::build(&DatasetConfig::small(60, 14)).unwrap();
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let a = join_all(&ds, &cfg, 1);
        let b = join_all(&ds, &cfg, 4);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.visited_trajectories, b.visited_trajectories);
    }

    #[test]
    fn larger_theta_yields_subset() {
        let ds = Dataset::build(&DatasetConfig::small(50, 15)).unwrap();
        let low = join_all(
            &ds,
            &JoinConfig {
                theta: 0.5,
                ..Default::default()
            },
            2,
        );
        let high = join_all(
            &ds,
            &JoinConfig {
                theta: 0.75,
                ..Default::default()
            },
            2,
        );
        let low_set: std::collections::HashSet<(TrajectoryId, TrajectoryId)> =
            low.pairs.iter().map(|p| (p.a, p.b)).collect();
        for p in &high.pairs {
            assert!(low_set.contains(&(p.a, p.b)));
            assert!(p.similarity >= 0.75);
        }
        assert!(high.pairs.len() <= low.pairs.len());
        // higher threshold prunes harder
        assert!(high.visited_trajectories <= low.visited_trajectories);
    }

    #[test]
    fn min_radius_scheduling_agrees() {
        let ds = Dataset::build(&DatasetConfig::small(40, 16)).unwrap();
        let rr = join_all(
            &ds,
            &JoinConfig {
                theta: 0.6,
                scheduling: JoinScheduling::RoundRobin,
                ..Default::default()
            },
            1,
        );
        let mr = join_all(
            &ds,
            &JoinConfig {
                theta: 0.6,
                scheduling: JoinScheduling::MinRadius,
                ..Default::default()
            },
            1,
        );
        assert_eq!(rr.pairs, mr.pairs);
    }

    #[test]
    fn near_duplicates_are_found() {
        // two copies of the same trip must join at any θ ≤ 1
        use uots_text::KeywordSet;
        use uots_trajectory::{Sample, Trajectory};
        let ds = Dataset::build(&DatasetConfig::small(5, 17)).unwrap();
        let mut store = TrajectoryStore::new();
        let mk = || {
            Trajectory::new(
                (0..5)
                    .map(|i| Sample {
                        node: uots_network::NodeId(i * 2),
                        time: 1_000.0 + 30.0 * i as f64,
                    })
                    .collect(),
                KeywordSet::empty(),
            )
            .unwrap()
        };
        let a = store.push(mk());
        let b = store.push(mk());
        let vidx = store.build_vertex_index(ds.network.num_nodes());
        let tidx = store.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.999,
            ..Default::default()
        };
        let r = ts_join(&ds.network, &store, &vidx, &tidx, &cfg, 1).unwrap();
        assert_eq!(r.pairs.len(), 1);
        assert_eq!((r.pairs[0].a, r.pairs[0].b), (a, b));
        assert!((r.pairs[0].similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unbudgeted_join_is_exact() {
        let ds = Dataset::build(&DatasetConfig::small(30, 21)).unwrap();
        let r = join_all(
            &ds,
            &JoinConfig {
                theta: 0.6,
                ..Default::default()
            },
            2,
        );
        assert!(r.completeness.is_exact());
    }

    #[test]
    fn budgeted_join_returns_a_certified_subset() {
        let ds = Dataset::build(&DatasetConfig::small(60, 22)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let exact = ts_join(&ds.network, &ds.store, &ds.vertex_index, &tidx, &cfg, 1).unwrap();
        let exact_set: std::collections::HashSet<(TrajectoryId, TrajectoryId)> =
            exact.pairs.iter().map(|p| (p.a, p.b)).collect();
        // a visited-trajectory cap small enough to trip mid-join
        let budget =
            ExecutionBudget::default().with_max_visited(exact.visited_trajectories / 4 + 1);
        let r = ts_join_with(
            &ds.network,
            &ds.store,
            &ds.vertex_index,
            &tidx,
            &cfg,
            1,
            &budget,
            &RunControl::unbounded(),
            None,
        )
        .unwrap();
        assert!(!r.completeness.is_exact(), "tiny budget must interrupt");
        assert!((r.completeness.bound_gap() - (1.0 - cfg.theta)).abs() < 1e-12);
        assert!(r.pairs.len() <= exact.pairs.len());
        for p in &r.pairs {
            assert!(exact_set.contains(&(p.a, p.b)), "subset semantics");
            assert!(p.similarity >= cfg.theta, "reported pairs stay exact");
        }
    }

    #[test]
    fn pre_cancelled_join_returns_empty_best_effort() {
        let ds = Dataset::build(&DatasetConfig::small(20, 23)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.7,
            ..Default::default()
        };
        let token = uots_core::CancellationToken::new();
        token.cancel();
        let r = ts_join_with(
            &ds.network,
            &ds.store,
            &ds.vertex_index,
            &tidx,
            &cfg,
            2,
            &ExecutionBudget::UNLIMITED,
            &RunControl::with_token(token),
            None,
        )
        .unwrap();
        assert!(r.pairs.is_empty());
        assert!(!r.completeness.is_exact());
        assert_eq!(r.visited_trajectories, 0);
    }

    #[test]
    fn join_phases_partition_the_runtime() {
        let ds = Dataset::build(&DatasetConfig::small(40, 24)).unwrap();
        let r = join_all(
            &ds,
            &JoinConfig {
                theta: 0.6,
                ..Default::default()
            },
            2,
        );
        assert!(
            r.phases.nanos(Phase::NetworkExpansion) > 0,
            "search phase always does work"
        );
        assert!(r.phases.total() <= r.runtime, "phases cannot exceed wall");
    }

    #[test]
    fn recorded_join_lands_in_the_registry() {
        let ds = Dataset::build(&DatasetConfig::small(40, 25)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let registry = MetricsRegistry::default();
        let r = ts_join(&ds.network, &ds.store, &ds.vertex_index, &tidx, &cfg, 2).unwrap();
        record_join_metrics(&registry, &r);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("uots_join_pairs_total", &[]),
            Some(r.pairs.len() as u64)
        );
        assert_eq!(
            snap.counter("uots_join_visited_trajectories_total", &[]),
            Some(r.visited_trajectories as u64)
        );
        assert_eq!(snap.counter("uots_join_interrupted_total", &[]), None);
        let phase_hist = snap
            .histogram(
                "uots_join_phase_duration_ns",
                &[("phase", "network_expansion")],
            )
            .expect("search phase recorded");
        assert_eq!(phase_hist.count, 1);
        // and the whole export must be a valid Prometheus page
        uots_obs::validate_prometheus_text(&registry.render_prometheus()).unwrap();
    }

    #[test]
    fn cached_join_matches_uncached_and_warms_across_runs() {
        let ds = Dataset::build(&DatasetConfig::small(40, 26)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let plain = ts_join(&ds.network, &ds.store, &ds.vertex_index, &tidx, &cfg, 2).unwrap();
        let cache = Arc::new(DistanceCache::new(1 << 16));
        for round in 0..2 {
            let cached = ts_join_with(
                &ds.network,
                &ds.store,
                &ds.vertex_index,
                &tidx,
                &cfg,
                2,
                &ExecutionBudget::UNLIMITED,
                &RunControl::unbounded(),
                Some(&cache),
            )
            .unwrap();
            assert_eq!(plain.pairs.len(), cached.pairs.len(), "round {round}");
            for (a, b) in plain.pairs.iter().zip(cached.pairs.iter()) {
                assert_eq!((a.a, a.b), (b.a, b.b), "round {round}");
                assert_eq!(
                    a.similarity.to_bits(),
                    b.similarity.to_bits(),
                    "round {round}: cached similarities must be bit-identical"
                );
            }
        }
        let stats = cache.stats();
        assert!(stats.inserts > 0, "searches must publish prefixes");
        assert!(stats.hits > 0, "the second run must hit the warm cache");
    }

    #[test]
    fn validation_errors() {
        let ds = Dataset::build(&DatasetConfig::small(10, 18)).unwrap();
        let tidx = ds.store.build_timestamp_index();
        for bad in [
            JoinConfig {
                theta: 0.0,
                ..Default::default()
            },
            JoinConfig {
                theta: 1.5,
                ..Default::default()
            },
            JoinConfig {
                lambda: -0.1,
                ..Default::default()
            },
            JoinConfig {
                max_sources: 1,
                ..Default::default()
            },
        ] {
            assert!(
                ts_join(&ds.network, &ds.store, &ds.vertex_index, &tidx, &bad, 1).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn spatial_only_and_temporal_only_joins() {
        let ds = Dataset::build(&DatasetConfig::small(30, 19)).unwrap();
        for lambda in [0.0, 1.0] {
            let cfg = JoinConfig {
                theta: 0.8,
                lambda,
                ..Default::default()
            };
            let fast = join_all(&ds, &cfg, 1);
            let brute = ts_join_brute(&ds.network, &ds.store, &cfg).unwrap();
            assert_eq!(fast.pairs.len(), brute.len(), "λ={lambda}");
            for (f, b) in fast.pairs.iter().zip(brute.iter()) {
                assert!((f.similarity - b.similarity).abs() < 1e-9);
            }
        }
    }
}
