//! Non-self join (`P ≠ Q`) — the paper family's §5 extension.
//!
//! Both sets run trajectory searches *against the other set's indexes*:
//! probes from `P` collect candidates in `Q` (with `P`-side halves) and
//! vice versa. A pair qualifies iff it appears in both directions, and its
//! exact similarity is again the sum of the two stored halves. Each side's
//! searches are independent, so both phases parallelize; the merge remains
//! a hash join.

use crate::search::{SearchStats, Worker};
use crate::similarity::Half;
use crate::{validate_config, JoinConfig, JoinError, JoinGate, JoinPair, JoinResult};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use uots_core::{Completeness, DistanceCache, ExecutionBudget, RunControl};
use uots_index::{TimestampIndex, VertexInvertedIndex};
use uots_network::RoadNetwork;
use uots_obs::{Phase, PhaseNanos};
use uots_trajectory::{TrajectoryId, TrajectoryStore};

/// One worker chunk's output: per-probe candidate lists + search stats.
type ChunkResults = (
    Vec<(TrajectoryId, Vec<crate::search::Candidate>)>,
    SearchStats,
);

/// One side of a non-self join: a trajectory set with its query-time
/// indexes (vertex → trajectory and sample-timestamp → trajectory).
#[derive(Clone, Copy)]
pub struct JoinSide<'a> {
    /// The trajectories of this side.
    pub store: &'a TrajectoryStore,
    /// vertex → trajectory index over `store`.
    pub vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
    /// timestamp index over `store`.
    pub timestamp_index: &'a TimestampIndex<TrajectoryId>,
}

impl<'a> JoinSide<'a> {
    /// Bundles a store with its indexes. The indexes must have been built
    /// from this store over the same network passed to [`ts_join_two`].
    pub fn new(
        store: &'a TrajectoryStore,
        vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
        timestamp_index: &'a TimestampIndex<TrajectoryId>,
    ) -> Self {
        JoinSide {
            store,
            vertex_index,
            timestamp_index,
        }
    }
}

/// A qualifying cross-set pair: `p` indexes into the `P` store, `q` into
/// the `Q` store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossPair {
    /// Trajectory in `P`.
    pub p: TrajectoryId,
    /// Trajectory in `Q`.
    pub q: TrajectoryId,
    /// Exact pair similarity, `≥ θ`.
    pub similarity: f64,
}

/// Result of a non-self join.
#[derive(Debug, Clone)]
pub struct CrossJoinResult {
    /// Qualifying pairs, descending similarity then ids.
    pub pairs: Vec<CrossPair>,
    /// Aggregate effort counters (both directions).
    pub visited_trajectories: usize,
    /// Vertices settled across all searches.
    pub settled_vertices: usize,
    /// Timestamps scanned across all searches.
    pub scanned_timestamps: usize,
    /// Candidates generated before merging.
    pub candidates: usize,
    /// Wall-clock time of the whole join.
    pub runtime: std::time::Duration,
    /// Macro-phase breakdown of `runtime`: both directed candidate
    /// searches count as [`Phase::NetworkExpansion`], the merge as
    /// [`Phase::JoinPair`].
    pub phases: PhaseNanos,
    /// [`Completeness::Exact`] when every probe of both directions ran;
    /// otherwise a conservative certificate (see
    /// [`crate::ts_join_with`] for the argument).
    pub completeness: Completeness,
}

fn run_side(
    net: &RoadNetwork,
    probes: &TrajectoryStore,
    targets: JoinSide<'_>,
    cfg: &JoinConfig,
    pool: &rayon::ThreadPool,
    gate: &JoinGate,
    cache: Option<&Arc<DistanceCache>>,
) -> Result<(Vec<HashMap<TrajectoryId, Half>>, SearchStats), JoinError> {
    for (id, t) in probes.iter() {
        let distinct = crate::similarity::distinct_nodes_weighted(t).0.len();
        if distinct > cfg.max_sources {
            return Err(JoinError::TooManySources {
                trajectory: id,
                sources: distinct,
            });
        }
    }
    let ids: Vec<TrajectoryId> = probes.ids().collect();
    let chunk = ids
        .len()
        .div_ceil(pool.current_num_threads().max(1) * 4)
        .max(1);
    let per_chunk: Vec<ChunkResults> = pool.install(|| {
        ids.par_chunks(chunk)
            .map(|probe_chunk| {
                let mut worker = Worker::new(
                    net,
                    targets.store,
                    targets.vertex_index,
                    targets.timestamp_index,
                    cache.cloned(),
                );
                let mut stats = SearchStats::default();
                let mut out = Vec::with_capacity(probe_chunk.len());
                for &probe in probe_chunk {
                    if !gate.admit() {
                        break;
                    }
                    let traj = probes.get(probe);
                    // cross-set: never skip any target id
                    let (cands, s) = worker.search_trajectory(cfg, traj, None);
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
    let mut maps: Vec<HashMap<TrajectoryId, Half>> = vec![HashMap::new(); probes.len()];
    let mut totals = SearchStats::default();
    for (chunk_out, stats) in per_chunk {
        totals.visited += stats.visited;
        totals.settled_vertices += stats.settled_vertices;
        totals.scanned_timestamps += stats.scanned_timestamps;
        totals.candidates += stats.candidates;
        for (probe, cands) in chunk_out {
            let map = &mut maps[probe.index()];
            for c in cands {
                map.insert(c.other, c.half);
            }
        }
    }
    Ok((maps, totals))
}

/// The non-self trajectory similarity join between sets `P` and `Q` over
/// one shared road network, unbudgeted and uncached. Equivalent to
/// [`ts_join_two_with`] under an unlimited budget.
///
/// # Errors
///
/// See [`JoinError`].
pub fn ts_join_two(
    net: &RoadNetwork,
    p: JoinSide<'_>,
    q: JoinSide<'_>,
    cfg: &JoinConfig,
    threads: usize,
) -> Result<CrossJoinResult, JoinError> {
    ts_join_two_with(
        net,
        p,
        q,
        cfg,
        threads,
        &ExecutionBudget::UNLIMITED,
        &RunControl::unbounded(),
        None,
    )
}

/// The non-self join under a budget: probe-granularity interruption with
/// the same subset semantics and conservative `1 − θ` certificate as
/// [`crate::ts_join_with`]. The budget spans both probe directions.
///
/// With `caches`, one shared [`DistanceCache`] serves **each probe
/// direction**: `caches.0` serves `P`'s probes (expansions from `P`'s
/// sample vertices), `caches.1` serves `Q`'s. Distances depend only on the
/// shared network, so the split is a sizing/locality choice, not a
/// correctness one — the pair set is identical to the uncached join
/// either way.
///
/// # Errors
///
/// See [`JoinError`]. Budget exhaustion is **not** an error.
#[allow(clippy::too_many_arguments)]
pub fn ts_join_two_with(
    net: &RoadNetwork,
    p: JoinSide<'_>,
    q: JoinSide<'_>,
    cfg: &JoinConfig,
    threads: usize,
    budget: &ExecutionBudget,
    ctl: &RunControl,
    caches: Option<(&Arc<DistanceCache>, &Arc<DistanceCache>)>,
) -> Result<CrossJoinResult, JoinError> {
    validate_config(cfg)?;
    let start = Instant::now();
    let gate = JoinGate::new(budget, ctl);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .map_err(|e| JoinError::BadParameter(format!("thread pool: {e}")))?;

    // P probes against Q's indexes, and vice versa
    let mut phases = PhaseNanos::ZERO;
    let search_start = Instant::now();
    let (p_maps, p_stats) = run_side(net, p.store, q, cfg, &pool, &gate, caches.map(|c| c.0))?;
    let (q_maps, q_stats) = run_side(net, q.store, p, cfg, &pool, &gate, caches.map(|c| c.1))?;
    phases.add(
        Phase::NetworkExpansion,
        u64::try_from(search_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );

    let merge_start = Instant::now();
    let mut pairs = Vec::new();
    for pid in p.store.ids() {
        for (&qid, half_pq) in &p_maps[pid.index()] {
            if let Some(half_qp) = q_maps[qid.index()].get(&pid) {
                let sim = half_pq.value() + half_qp.value();
                if sim >= cfg.theta {
                    pairs.push(CrossPair {
                        p: pid,
                        q: qid,
                        similarity: sim,
                    });
                }
            }
        }
    }
    pairs.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| x.p.cmp(&y.p))
            .then_with(|| x.q.cmp(&y.q))
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
    Ok(CrossJoinResult {
        pairs,
        visited_trajectories: p_stats.visited + q_stats.visited,
        settled_vertices: p_stats.settled_vertices + q_stats.settled_vertices,
        scanned_timestamps: p_stats.scanned_timestamps + q_stats.scanned_timestamps,
        candidates: p_stats.candidates + q_stats.candidates,
        runtime: start.elapsed(),
        phases,
        completeness,
    })
}

/// Exhaustive non-self oracle (tests and tiny inputs).
///
/// # Errors
///
/// See [`JoinError`].
pub fn ts_join_two_brute(
    net: &RoadNetwork,
    p: &TrajectoryStore,
    q: &TrajectoryStore,
    cfg: &JoinConfig,
) -> Result<Vec<CrossPair>, JoinError> {
    validate_config(cfg)?;
    use uots_network::dijkstra::shortest_path_tree;
    let mut pairs = Vec::new();
    // precompute per-trajectory trees once per side
    let p_pre: Vec<_> = p
        .iter()
        .map(|(_, t)| {
            let (nodes, weights) = crate::similarity::distinct_nodes_weighted(t);
            let trees: Vec<_> = nodes.iter().map(|&v| shortest_path_tree(net, v)).collect();
            (trees, weights)
        })
        .collect();
    let q_pre: Vec<_> = q
        .iter()
        .map(|(_, t)| {
            let (nodes, weights) = crate::similarity::distinct_nodes_weighted(t);
            let trees: Vec<_> = nodes.iter().map(|&v| shortest_path_tree(net, v)).collect();
            (trees, weights)
        })
        .collect();
    for (pid, tp) in p.iter() {
        for (qid, tq) in q.iter() {
            let (ptrees, pweights) = &p_pre[pid.index()];
            let (qtrees, qweights) = &q_pre[qid.index()];
            let sim = crate::similarity::exact_half(cfg, ptrees, pweights, tp, tq).value()
                + crate::similarity::exact_half(cfg, qtrees, qweights, tq, tp).value();
            if sim >= cfg.theta {
                pairs.push(CrossPair {
                    p: pid,
                    q: qid,
                    similarity: sim,
                });
            }
        }
    }
    pairs.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| x.p.cmp(&y.p))
            .then_with(|| x.q.cmp(&y.q))
    });
    Ok(pairs)
}

impl From<CrossJoinResult> for JoinResult {
    /// Views a cross join as a generic join result (pair ids lose their
    /// set distinction; useful for uniform reporting).
    fn from(r: CrossJoinResult) -> JoinResult {
        JoinResult {
            pairs: r
                .pairs
                .iter()
                .map(|cp| JoinPair {
                    a: cp.p,
                    b: cp.q,
                    similarity: cp.similarity,
                })
                .collect(),
            visited_trajectories: r.visited_trajectories,
            settled_vertices: r.settled_vertices,
            scanned_timestamps: r.scanned_timestamps,
            candidates: r.candidates,
            runtime: r.runtime,
            phases: r.phases,
            completeness: r.completeness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_datagen::{Dataset, DatasetConfig};

    #[test]
    fn cross_join_matches_brute_force() {
        let ds = Dataset::build(&DatasetConfig::small(30, 23)).unwrap();
        // split the one store into P (even ids) and Q (odd ids)
        let mut p = TrajectoryStore::new();
        let mut q = TrajectoryStore::new();
        for (id, t) in ds.store.iter() {
            if id.0 % 2 == 0 {
                p.push(t.clone());
            } else {
                q.push(t.clone());
            }
        }
        let pv = p.build_vertex_index(ds.network.num_nodes());
        let pt = p.build_timestamp_index();
        let qv = q.build_vertex_index(ds.network.num_nodes());
        let qt = q.build_timestamp_index();
        for theta in [0.5, 0.7, 0.9] {
            let cfg = JoinConfig {
                theta,
                ..Default::default()
            };
            let fast = ts_join_two(
                &ds.network,
                JoinSide::new(&p, &pv, &pt),
                JoinSide::new(&q, &qv, &qt),
                &cfg,
                2,
            )
            .unwrap();
            let brute = ts_join_two_brute(&ds.network, &p, &q, &cfg).unwrap();
            assert_eq!(fast.pairs.len(), brute.len(), "θ={theta}");
            for (f, b) in fast.pairs.iter().zip(brute.iter()) {
                assert_eq!((f.p, f.q), (b.p, b.q));
                assert!((f.similarity - b.similarity).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn self_join_as_cross_join_of_identical_sets_contains_diagonal() {
        // joining a set with itself must report every trajectory paired
        // with itself at similarity 1 (the cross join has no self-exclusion)
        let ds = Dataset::build(&DatasetConfig::small(8, 29)).unwrap();
        let v = ds.store.build_vertex_index(ds.network.num_nodes());
        let t = ds.store.build_timestamp_index();
        let side = JoinSide::new(&ds.store, &v, &t);
        let cfg = JoinConfig {
            theta: 0.999,
            ..Default::default()
        };
        let r = ts_join_two(&ds.network, side, side, &cfg, 1).unwrap();
        let diagonal = r.pairs.iter().filter(|p| p.p == p.q).count();
        assert_eq!(diagonal, ds.store.len());
        for p in r.pairs.iter().filter(|p| p.p == p.q) {
            assert!((p.similarity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn conversion_to_join_result() {
        let ds = Dataset::build(&DatasetConfig::small(6, 31)).unwrap();
        let v = ds.store.build_vertex_index(ds.network.num_nodes());
        let t = ds.store.build_timestamp_index();
        let side = JoinSide::new(&ds.store, &v, &t);
        let cfg = JoinConfig {
            theta: 0.9,
            ..Default::default()
        };
        let cross = ts_join_two(&ds.network, side, side, &cfg, 1).unwrap();
        assert!(cross.phases.nanos(Phase::NetworkExpansion) > 0);
        assert!(cross.phases.total() <= cross.runtime);
        let n = cross.pairs.len();
        let phase_total = cross.phases.total();
        let generic: JoinResult = cross.into();
        assert_eq!(generic.pairs.len(), n);
        assert_eq!(generic.phases.total(), phase_total);
    }

    #[test]
    fn budgeted_cross_join_returns_a_certified_subset() {
        let ds = Dataset::build(&DatasetConfig::small(40, 41)).unwrap();
        let v = ds.store.build_vertex_index(ds.network.num_nodes());
        let t = ds.store.build_timestamp_index();
        let side = JoinSide::new(&ds.store, &v, &t);
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let exact = ts_join_two(&ds.network, side, side, &cfg, 1).unwrap();
        assert!(exact.completeness.is_exact());
        let exact_set: std::collections::HashSet<(TrajectoryId, TrajectoryId)> =
            exact.pairs.iter().map(|x| (x.p, x.q)).collect();
        let budget =
            ExecutionBudget::default().with_max_visited(exact.visited_trajectories / 4 + 1);
        let r = ts_join_two_with(
            &ds.network,
            side,
            side,
            &cfg,
            1,
            &budget,
            &RunControl::unbounded(),
            None,
        )
        .unwrap();
        assert!(!r.completeness.is_exact());
        assert!((r.completeness.bound_gap() - (1.0 - cfg.theta)).abs() < 1e-12);
        for x in &r.pairs {
            assert!(exact_set.contains(&(x.p, x.q)), "subset semantics");
        }
    }

    #[test]
    fn cached_cross_join_matches_uncached() {
        let ds = Dataset::build(&DatasetConfig::small(30, 43)).unwrap();
        let mut p = TrajectoryStore::new();
        let mut q = TrajectoryStore::new();
        for (id, t) in ds.store.iter() {
            if id.0 % 2 == 0 {
                p.push(t.clone());
            } else {
                q.push(t.clone());
            }
        }
        let pv = p.build_vertex_index(ds.network.num_nodes());
        let pt = p.build_timestamp_index();
        let qv = q.build_vertex_index(ds.network.num_nodes());
        let qt = q.build_timestamp_index();
        let cfg = JoinConfig {
            theta: 0.6,
            ..Default::default()
        };
        let plain = ts_join_two(
            &ds.network,
            JoinSide::new(&p, &pv, &pt),
            JoinSide::new(&q, &qv, &qt),
            &cfg,
            2,
        )
        .unwrap();
        let p_cache = Arc::new(DistanceCache::new(1 << 16));
        let q_cache = Arc::new(DistanceCache::new(1 << 16));
        let cached = ts_join_two_with(
            &ds.network,
            JoinSide::new(&p, &pv, &pt),
            JoinSide::new(&q, &qv, &qt),
            &cfg,
            2,
            &ExecutionBudget::UNLIMITED,
            &RunControl::unbounded(),
            Some((&p_cache, &q_cache)),
        )
        .unwrap();
        assert_eq!(plain.pairs.len(), cached.pairs.len());
        for (a, b) in plain.pairs.iter().zip(cached.pairs.iter()) {
            assert_eq!((a.p, a.q), (b.p, b.q));
            assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
        }
        assert!(p_cache.stats().inserts > 0);
        assert!(q_cache.stats().inserts > 0);
    }

    #[test]
    fn empty_q_set_yields_no_pairs() {
        let ds = Dataset::build(&DatasetConfig::small(5, 37)).unwrap();
        let v = ds.store.build_vertex_index(ds.network.num_nodes());
        let t = ds.store.build_timestamp_index();
        let empty = TrajectoryStore::new();
        let ev = empty.build_vertex_index(ds.network.num_nodes());
        let et = empty.build_timestamp_index();
        let cfg = JoinConfig::default();
        let r = ts_join_two(
            &ds.network,
            JoinSide::new(&ds.store, &v, &t),
            JoinSide::new(&empty, &ev, &et),
            &cfg,
            1,
        )
        .unwrap();
        assert!(r.pairs.is_empty());
    }
}
