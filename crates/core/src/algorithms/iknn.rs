//! IKNN-style lockstep-round baseline.
//!
//! An adaptation of the BCT / IKNN candidate-generation scheme (Chen et al.,
//! SIGMOD'10) to road networks and the UOTS similarity: all query sources
//! expand **in lockstep rounds** of a fixed number of settle steps, and the
//! only pruning bound is the *coarse* all-source radius bound
//!
//! ```text
//! UB = w_s · (1/m) Σ_i e^(−r_i / decay) + w_tx · 1 + w_tm · (…radii…)
//! ```
//!
//! — no per-trajectory partial information and no exact textual term is
//! used for bounding, which is exactly what the paper's per-trajectory
//! bounds add on top. Comparing [`IknnBaseline`] to
//! [`Expansion`](crate::algorithms::Expansion) isolates the value of those
//! bounds and of the scheduling strategy.

use crate::algorithms::Algorithm;
use crate::budget::{Completeness, Gate, RunControl};
use crate::db::{locate, Part, PartCut, TimeChannel, View};
use crate::keywords::TextualEval;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, QueryOptions, QueryResult, SearchMetrics, UotsQuery};
use std::collections::HashMap;
use uots_network::expansion::NetworkExpansion;
use uots_obs::{Phase, Recorder};
use uots_trajectory::TrajectoryId;

/// The lockstep baseline. `settles_per_round` controls the round
/// granularity (the termination test runs between rounds).
#[derive(Debug, Clone, Copy)]
pub struct IknnBaseline {
    /// Settle/scan steps each source performs per round.
    pub settles_per_round: usize,
}

impl Default for IknnBaseline {
    fn default() -> Self {
        IknnBaseline {
            settles_per_round: 64,
        }
    }
}

struct State {
    sdists: Vec<f64>,
    s_remaining: u32,
    tdists: Vec<f64>,
    t_remaining: u32,
    done: bool,
    /// The part holding the trajectory, and its id there.
    part: usize,
    local: TrajectoryId,
}

impl State {
    fn new(m: usize, qt: usize, part: usize, local: TrajectoryId) -> Self {
        State {
            sdists: vec![f64::NAN; m],
            s_remaining: m as u32,
            tdists: vec![f64::NAN; qt],
            t_remaining: qt as u32,
            done: false,
            part,
            local,
        }
    }
}

/// The round bound shared by the termination test and the interruption
/// certificate: the best similarity any unfinalized trajectory could still
/// achieve given the current radii (textual bounded trivially by 1).
fn coarse_round_ub(
    spatial: &[NetworkExpansion<'_>],
    temporal: &[TimeChannel<'_>],
    states: &HashMap<TrajectoryId, State>,
    opts: &QueryOptions,
) -> f64 {
    let m = spatial.len();
    let qt = temporal.len();
    let w = opts.weights;
    let s_radii: Vec<f64> = spatial.iter().map(|e| e.unsettled_lower_bound()).collect();
    let t_radii: Vec<f64> = temporal.iter().map(TimeChannel::radius).collect();
    let coarse = |sdists: Option<&[f64]>, tdists: Option<&[f64]>| {
        let spatial_ub = (0..m)
            .map(|i| {
                let d = match sdists {
                    Some(ds) if !ds[i].is_nan() => ds[i],
                    _ => s_radii[i],
                };
                (-d / opts.decay_km).exp()
            })
            .sum::<f64>()
            / m as f64;
        let temporal_ub = if qt == 0 {
            0.0
        } else {
            (0..qt)
                .map(|j| {
                    let d = match tdists {
                        Some(ds) if !ds[j].is_nan() => ds[j],
                        _ => t_radii[j],
                    };
                    (-d / opts.decay_s).exp()
                })
                .sum::<f64>()
                / qt as f64
        };
        w.spatial * spatial_ub + w.textual * 1.0 + w.temporal * temporal_ub
    };
    let mut ub = coarse(None, None);
    for st in states.values() {
        if !st.done {
            ub = ub.max(coarse(Some(&st.sdists), Some(&st.tdists)));
        }
    }
    ub
}

impl Algorithm for IknnBaseline {
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        view.validate(query)?;
        if ctl.is_cancelled() || ctl.deadline_passed() {
            return Ok(QueryResult::interrupted_empty());
        }
        let start = std::time::Instant::now();
        let mut gate = Gate::new(&query.options().budget, ctl);
        let opts = query.options();
        let w = opts.weights;
        let mut metrics = SearchMetrics::for_one_query();
        let parts = view.parts();

        let mut spatial: Vec<NetworkExpansion<'_>> = query
            .locations()
            .iter()
            .map(|&v| NetworkExpansion::from_source(view.network(), v))
            .collect();
        let mut temporal: Vec<TimeChannel<'_>> = if w.uses_temporal() {
            query
                .times()
                .iter()
                .map(|&t| TimeChannel::new(parts, t))
                .collect()
        } else {
            Vec::new()
        };

        let m = spatial.len();
        let qt = temporal.len();
        // keyed by global id
        let mut states: HashMap<TrajectoryId, State> = HashMap::new();
        let mut topk = TopK::new(opts.k);
        let mut cut = PartCut::new(view, query);
        let per_round = self.settles_per_round.max(1);

        let textual_eval: Vec<TextualEval<'_>> = parts
            .iter()
            .map(|p| TextualEval::new(query.keywords(), p.db.keyword_blocks))
            .collect();

        // finalize helper as a closure would fight the borrow checker;
        // structured as an inner function instead
        fn finalize(
            query: &UotsQuery,
            st: &mut State,
            tid: TrajectoryId,
            parts: &[Part<'_>],
            textual_eval: &[TextualEval<'_>],
            topk: &mut TopK,
            metrics: &mut SearchMetrics,
        ) {
            let opts = query.options();
            st.done = true;
            metrics.candidates += 1;
            metrics.heap_pushes += 1; // top-k offer below
            let spatial_sim = similarity::spatial_component(&st.sdists, opts.decay_km);
            let traj = parts[st.part].db.store.get(st.local);
            let textual = textual_eval[st.part].eval(st.local, traj);
            let temporal_sim = if st.tdists.is_empty() {
                0.0
            } else {
                similarity::temporal_component(&st.tdists, opts.decay_s)
            };
            topk.offer(crate::Match {
                id: tid,
                similarity: similarity::combine(query, spatial_sim, textual, temporal_sim),
                spatial: spatial_sim,
                textual,
                temporal: temporal_sim,
            });
        }

        let mut interrupted = false;
        'rounds: loop {
            let mut any_live = false;

            // one lockstep round over every source, each settle walking
            // the view's postings of the parts not yet retired
            for (i, source) in spatial.iter_mut().enumerate() {
                rec.enter(Phase::NetworkExpansion);
                for _ in 0..per_round {
                    if gate.should_stop(
                        metrics.visited_trajectories,
                        metrics.settled_vertices + metrics.scanned_timestamps,
                    ) {
                        interrupted = true;
                        break 'rounds;
                    }
                    let Some(settled) = source.next_settled() else {
                        break;
                    };
                    metrics.settled_vertices += 1;
                    for &tid in view.vertex_index().values_at(settled.node) {
                        let (p, local) = locate(parts.len(), tid);
                        if cut.is_retired(p) {
                            continue;
                        }
                        let st = states.entry(tid).or_insert_with(|| {
                            metrics.visited_trajectories += 1;
                            cut.walk(p);
                            State::new(m, qt, p, local)
                        });
                        if !st.done && st.sdists[i].is_nan() {
                            st.sdists[i] = settled.dist;
                            st.s_remaining -= 1;
                        }
                    }
                }
                any_live |= !source.is_exhausted();
            }
            rec.enter(Phase::NetworkExpansion);
            for (j, channel) in temporal.iter_mut().enumerate() {
                for _ in 0..per_round {
                    if gate.should_stop(
                        metrics.visited_trajectories,
                        metrics.settled_vertices + metrics.scanned_timestamps,
                    ) {
                        interrupted = true;
                        break 'rounds;
                    }
                    let Some((p, scanned)) = channel.next_scanned() else {
                        break;
                    };
                    metrics.scanned_timestamps += 1;
                    if cut.is_retired(p) {
                        continue;
                    }
                    let global = parts[p].ids.global(scanned.value);
                    let st = states.entry(global).or_insert_with(|| {
                        metrics.visited_trajectories += 1;
                        cut.walk(p);
                        State::new(m, qt, p, scanned.value)
                    });
                    if !st.done && st.tdists[j].is_nan() {
                        st.tdists[j] = scanned.dt;
                        st.t_remaining -= 1;
                    }
                }
                any_live |= !channel.is_exhausted();
            }
            let frontier: usize = spatial.iter().map(NetworkExpansion::frontier_len).sum();
            metrics.peak_frontier = metrics.peak_frontier.max(frontier);

            // settle exhausted sources' distances to exact ∞
            rec.enter(Phase::CandidateRefine);
            for (i, exp) in spatial.iter().enumerate() {
                if exp.is_exhausted() {
                    for st in states.values_mut() {
                        if !st.done && st.sdists[i].is_nan() {
                            st.sdists[i] = f64::INFINITY;
                            st.s_remaining -= 1;
                        }
                    }
                }
            }
            for (j, exp) in temporal.iter().enumerate() {
                if exp.is_exhausted() {
                    for st in states.values_mut() {
                        if !st.done && st.tdists[j].is_nan() {
                            st.tdists[j] = f64::INFINITY;
                            st.t_remaining -= 1;
                        }
                    }
                }
            }

            // finalize fully scanned trajectories
            let ready: Vec<TrajectoryId> = states
                .iter()
                .filter(|(_, st)| !st.done && st.s_remaining == 0 && st.t_remaining == 0)
                .map(|(&tid, _)| tid)
                .collect();
            for tid in ready {
                let st = states.get_mut(&tid).expect("present");
                finalize(
                    query,
                    st,
                    tid,
                    parts,
                    &textual_eval,
                    &mut topk,
                    &mut metrics,
                );
            }
            cut.retire_below(topk.threshold());

            // Coarse bounds. Unscanned trajectories are bounded by the
            // current radii; partly-scanned ones additionally keep their
            // already-known exact distances (their earlier sightings are
            // *closer* than the current radii, so the all-radius bound alone
            // would not dominate them). Unlike the paper's algorithm, the
            // textual term stays at its trivial bound 1 and the partly
            // scanned set is re-scanned wholesale every round — this is the
            // baseline's inefficiency, not an error.
            rec.enter(Phase::HeapMaintenance);
            let ub = coarse_round_ub(&spatial, &temporal, &states, opts);
            // strict: a bound-tied trajectory could still realize exactly
            // the k-th similarity and win the id tie-break; exact-tie
            // plateaus end by source exhaustion (`any_live` below) instead
            if topk.threshold() > ub {
                break;
            }
            if !any_live {
                // everything reachable was scanned; evaluate never-touched
                // trajectories of the live parts exactly, by ascending
                // global id (disconnected networks / k > |P|)
                rec.enter(Phase::CandidateRefine);
                let mut untouched: Vec<(TrajectoryId, usize, TrajectoryId)> = Vec::new();
                for (p, part) in parts.iter().enumerate() {
                    if cut.is_retired(p) {
                        continue;
                    }
                    untouched.extend(part.db.store.ids().filter_map(|local| {
                        let tid = part.ids.global(local);
                        (part.db.is_live(local) && !states.contains_key(&tid))
                            .then_some((tid, p, local))
                    }));
                }
                untouched.sort_unstable_by_key(|&(tid, ..)| tid);
                for (tid, p, local) in untouched {
                    if gate.should_stop(
                        metrics.visited_trajectories,
                        metrics.settled_vertices + metrics.scanned_timestamps,
                    ) {
                        interrupted = true;
                        break 'rounds;
                    }
                    metrics.visited_trajectories += 1;
                    cut.walk(p);
                    let mut st = State {
                        sdists: vec![f64::INFINITY; m],
                        s_remaining: 0,
                        tdists: if qt == 0 {
                            Vec::new()
                        } else {
                            similarity::temporal_gaps(query.times(), parts[p].db.store.get(local))
                        },
                        t_remaining: 0,
                        done: false,
                        part: p,
                        local,
                    };
                    finalize(
                        query,
                        &mut st,
                        tid,
                        parts,
                        &textual_eval,
                        &mut topk,
                        &mut metrics,
                    );
                }
                break;
            }
        }

        rec.leave();
        cut.report(view, topk.threshold());
        let completeness = if interrupted {
            // the round bound at the moment of interruption certifies every
            // unfinalized and never-touched trajectory (radii only grew)
            metrics.interrupted = 1;
            let ub = coarse_round_ub(&spatial, &temporal, &states, opts);
            Completeness::BestEffort {
                bound_gap: (ub - topk.threshold().max(0.0)).clamp(0.0, 1.0),
            }
        } else {
            Completeness::Exact
        };
        metrics.phases = rec.phases_snapshot();
        metrics.runtime = start.elapsed();
        Ok(QueryResult {
            matches: topk.into_sorted(),
            metrics,
            completeness,
        })
    }

    fn name(&self) -> &'static str {
        "iknn-baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BruteForce;
    use crate::query::{QueryOptions, Weights};
    use crate::Database;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn fixture() -> (uots_network::RoadNetwork, TrajectoryStore) {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let mut s = TrajectoryStore::new();
        for (nodes, tags, t0) in [
            (vec![0u32, 1, 2], vec![1u32, 2], 1_000.0),
            (vec![27, 28, 29], vec![2, 3], 2_000.0),
            (vec![61, 62, 63], vec![4], 3_000.0),
        ] {
            s.push(
                Trajectory::new(
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| Sample {
                            node: NodeId(v),
                            time: t0 + 60.0 * i as f64,
                        })
                        .collect(),
                    kws(&tags),
                )
                .unwrap(),
            );
        }
        (net, s)
    }

    #[test]
    fn agrees_with_brute_force() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb);
        for round in [1usize, 8, 256] {
            let algo = IknnBaseline {
                settles_per_round: round,
            };
            for lambda in [0.2, 0.5, 0.8] {
                let q = UotsQuery::with_options(
                    vec![NodeId(0), NodeId(9)],
                    kws(&[2]),
                    vec![],
                    QueryOptions {
                        weights: Weights::lambda(lambda).unwrap(),
                        k: 2,
                        ..Default::default()
                    },
                )
                .unwrap();
                let a = algo.run(&db, &q).unwrap();
                let b = BruteForce.run(&db, &q).unwrap();
                assert_eq!(a.ids(), b.ids(), "round {round}, λ {lambda}");
            }
        }
    }

    #[test]
    fn temporal_channel_supported() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let tidx = s.build_timestamp_index();
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb).with_timestamp_index(&tidx);
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            kws(&[]),
            vec![3_060.0],
            QueryOptions {
                weights: Weights::new(0.2, 0.0, 0.8).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let a = IknnBaseline::default().run(&db, &q).unwrap();
        let b = BruteForce.run(&db, &q).unwrap();
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.matches[0].id.0, 2); // the trajectory travelling ~3000 s
    }

    #[test]
    fn visits_at_least_as_many_as_expansion() {
        use crate::algorithms::Expansion;
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(1)], kws(&[1, 2])).unwrap();
        let iknn = IknnBaseline::default().run(&db, &q).unwrap();
        let exp = Expansion::default().run(&db, &q).unwrap();
        assert_eq!(iknn.ids(), exp.ids());
        assert!(iknn.metrics.settled_vertices >= exp.metrics.settled_vertices);
    }
}
