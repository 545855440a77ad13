//! Textual-first filter-and-refine baseline.
//!
//! The analogue, in the UOTS setting, of the paper family's "drive the
//! search from the cheap domain" baselines (TF-Matching drives from the
//! temporal domain in the join paper): use the keyword inverted index to
//! compute the **exact textual similarity** of every trajectory sharing at
//! least one query keyword, bound each trajectory's combined similarity by
//!
//! ```text
//! Sim(q, τ) ≤ w_s · 1 + w_tx · Sim_T(q, τ) + w_tm · 1
//! ```
//!
//! and verify exact spatial (and temporal) similarity in descending bound
//! order, stopping once the k-th best exact similarity dominates the next
//! bound. Exact spatial evaluation needs network distances, so the baseline
//! pays for a full drain of the network from every query location up front
//! — precisely the "costly to acquire network distances" weakness the paper
//! attributes to baselines that are not driven by the spatial domain.

use crate::algorithms::{brute_force::drain, Algorithm};
use crate::budget::{Completeness, Gate, RunControl};
use crate::db::{PartCut, View};
use crate::keywords::TextualEval;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, QueryResult, SearchMetrics, UotsQuery};
use uots_obs::{Phase, Recorder};
use uots_trajectory::TrajectoryId;

/// The textual-first baseline. Requires
/// [`Database::keyword_index`][crate::Database::keyword_index] on every
/// part of the view.
///
/// The up-front distances are one batched
/// [`MultiSourceExpansion`](uots_network::expansion::MultiSourceExpansion)
/// drain. Over a view of several parts the drain happens once and the
/// refine loop walks every part's trajectories in one bound order.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextFirst;

impl Algorithm for TextFirst {
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        view.validate(query)?;
        let keyword_indexes = view
            .parts()
            .iter()
            .map(|p| p.db.keyword_index.ok_or(CoreError::MissingIndex("keyword")))
            .collect::<Result<Vec<_>, _>>()?;
        if ctl.is_cancelled() || ctl.deadline_passed() {
            return Ok(QueryResult::interrupted_empty());
        }
        let start = std::time::Instant::now();
        let mut gate = Gate::new(&query.options().budget, ctl);
        let mut metrics = SearchMetrics::for_one_query();
        let opts = query.options();
        let w = opts.weights;
        let network = view.network();

        // ---- filter: exact textual similarity via the inverted index ----
        // Trajectories sharing no keyword have Sim_T = 0 (or, for an empty
        // query keyword set, Sim_T = 1 exactly when the trajectory is also
        // untagged — the index can't enumerate those, so fall back to a full
        // textual pass in that edge case).
        rec.enter(Phase::TextFilter);
        let textual: Vec<TextualEval<'_>> = view
            .parts()
            .iter()
            .map(|p| TextualEval::new(query.keywords(), p.db.keyword_blocks))
            .collect();
        // per part: (bound, local id), descending bound, ties by ascending
        // id — within a part local and global ids ascend together
        let mut lists: Vec<Vec<(f64, TrajectoryId)>> = Vec::with_capacity(textual.len());
        for ((part, keyword_index), textual) in
            view.parts().iter().zip(keyword_indexes).zip(&textual)
        {
            let db = &part.db;
            let mut scored: Vec<(f64, TrajectoryId)> = if query.keywords().is_empty() {
                db.store
                    .iter()
                    .filter(|(id, _)| db.is_live(*id))
                    .map(|(id, t)| {
                        let ub = w.spatial + w.textual * textual.eval(id, t) + w.temporal;
                        (ub, id)
                    })
                    .collect()
            } else {
                let sharing = keyword_index.union_of(query.keywords().iter());
                let mut scored: Vec<(f64, TrajectoryId)> = sharing
                    .iter()
                    .map(|&id| {
                        let t = db.store.get(id);
                        let ub = w.spatial + w.textual * textual.eval(id, t) + w.temporal;
                        (ub, id)
                    })
                    .collect();
                // trajectories sharing no keyword: bound without textual
                // term; representing them individually would defeat the
                // filter, so a single pass adds them lazily only if the
                // bound can matter — here we append them with their common
                // bound and let the refine loop's early exit skip them
                // wholesale.
                let sharing_set: std::collections::HashSet<TrajectoryId> =
                    sharing.into_iter().collect();
                scored.extend(
                    db.store
                        .ids()
                        .filter(|id| db.is_live(*id) && !sharing_set.contains(id))
                        .map(|id| (w.spatial + w.temporal, id)),
                );
                scored
            };
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            lists.push(scored);
        }
        // the parts' lists merged lazily into one order — descending bound,
        // ties by ascending global id — as (bound, global id, part, local
        // id): the refine loop merges only what it consumes
        let mut cursors = vec![0usize; lists.len()];
        let mut order = std::iter::from_fn(|| {
            let mut best: Option<(usize, f64, TrajectoryId)> = None;
            for (p, list) in lists.iter().enumerate() {
                let Some(&(ub, local)) = list.get(cursors[p]) else {
                    continue;
                };
                let id = view.parts()[p].ids.global(local);
                if best
                    .is_none_or(|(_, b_ub, b_id)| ub.total_cmp(&b_ub).then(b_id.cmp(&id)).is_gt())
                {
                    best = Some((p, ub, id));
                }
            }
            let (p, ub, id) = best?;
            let local = lists[p][cursors[p]].1;
            cursors[p] += 1;
            Some((ub, id, p, local))
        })
        .peekable();

        // ---- refine: exact evaluation in bound order ----
        rec.enter(Phase::NetworkExpansion);
        let (ms, mut interrupted) = drain(network, query, &mut gate, &mut metrics);

        rec.enter(Phase::CandidateRefine);
        let mut topk = TopK::new(opts.k);
        let mut cut = PartCut::new(view, query);
        // index of the first bound not yet refined — the interruption
        // certificate: every unrefined trajectory scores at most its bound,
        // and bounds are sorted descending
        let mut next_bound = order.peek().map_or(0.0, |&(ub, ..)| ub);
        if !interrupted {
            for (ub, id, p, local) in order {
                next_bound = ub;
                // strict: a trajectory whose bound ties the k-th best could
                // still realize exactly that similarity and win the id
                // tie-break, so only `kth > ub` proves it irrelevant. A
                // part's bound dominates its entries', so this also stops
                // before any entry of a retired part
                if topk.threshold() > ub {
                    next_bound = 0.0;
                    break; // no later trajectory can beat the k-th best
                }
                if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                    interrupted = true;
                    break;
                }
                metrics.visited_trajectories += 1;
                metrics.candidates += 1;
                cut.walk(p);
                let traj = view.parts()[p].db.store.get(local);
                let tx = textual[p].eval(local, traj);
                let m = similarity::evaluate_with_multi(&ms, query, id, traj, tx);
                debug_assert!(m.similarity <= ub + 1e-9, "bound must dominate exact");
                metrics.heap_pushes += 1;
                topk.offer(m);
                next_bound = 0.0; // consumed: exact if the loop ends here
            }
        }
        rec.leave();
        cut.report(view, topk.threshold());

        let completeness = if interrupted {
            metrics.interrupted = 1;
            Completeness::BestEffort {
                bound_gap: (next_bound - topk.threshold().max(0.0)).clamp(0.0, 1.0),
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
        "text-first"
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
        let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
        let mut s = TrajectoryStore::new();
        for (nodes, tags) in [
            (vec![0u32, 1], vec![1u32, 2]),
            (vec![14, 15], vec![2, 3]),
            (vec![30, 31], vec![9]),
            (vec![33, 34], vec![]),
        ] {
            s.push(
                Trajectory::new(
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| Sample {
                            node: NodeId(v),
                            time: 100.0 * (i + 1) as f64,
                        })
                        .collect(),
                    kws(&tags),
                )
                .unwrap(),
            );
        }
        (net, s)
    }

    fn db<'a>(
        net: &'a uots_network::RoadNetwork,
        s: &'a TrajectoryStore,
        vidx: &'a uots_index::VertexInvertedIndex<TrajectoryId>,
        blocks: &'a uots_index::KeywordBlocks,
        kidx: &'a uots_index::KeywordInvertedIndex<TrajectoryId>,
    ) -> Database<'a> {
        Database::new(net, s, vidx, blocks).with_keyword_index(kidx)
    }

    #[test]
    fn matches_brute_force_across_lambdas() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let (blocks, kidx) = (s.build_keyword_blocks(), s.build_keyword_index(16));
        let d = db(&net, &s, &vidx, &blocks, &kidx);
        for lambda in [0.0, 0.3, 0.5, 0.9, 1.0] {
            let q = UotsQuery::with_options(
                vec![NodeId(0), NodeId(7)],
                kws(&[2]),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(lambda).unwrap(),
                    k: 3,
                    ..Default::default()
                },
            )
            .unwrap();
            let a = TextFirst.run(&d, &q).unwrap();
            let b = BruteForce.run(&d, &q).unwrap();
            assert_eq!(a.ids(), b.ids(), "λ = {lambda}");
        }
    }

    #[test]
    fn empty_query_keywords_fall_back_to_full_textual_pass() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let (blocks, kidx) = (s.build_keyword_blocks(), s.build_keyword_index(16));
        let d = db(&net, &s, &vidx, &blocks, &kidx);
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            KeywordSet::empty(),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.2).unwrap(),
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let a = TextFirst.run(&d, &q).unwrap();
        let b = BruteForce.run(&d, &q).unwrap();
        assert_eq!(a.ids(), b.ids());
        // the untagged trajectory has textual similarity 1 here and must win
        assert!((a.matches[0].textual - 1.0).abs() < 1e-12);
    }

    #[test]
    fn textual_filter_skips_work_when_textual_dominates() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let (blocks, kidx) = (s.build_keyword_blocks(), s.build_keyword_index(16));
        let d = db(&net, &s, &vidx, &blocks, &kidx);
        // pure textual query: only perfectly matching trajectories need exact
        // evaluation before the bound closes
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            kws(&[9]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.0).unwrap(),
                k: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let r = TextFirst.run(&d, &q).unwrap();
        assert_eq!(r.matches[0].id.0, 2);
        assert!(
            r.metrics.visited_trajectories <= 2,
            "visited {}",
            r.metrics.visited_trajectories
        );
    }

    #[test]
    fn requires_keyword_index() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let d = Database::new(&net, &s, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[1])).unwrap();
        assert!(matches!(
            TextFirst.run(&d, &q),
            Err(CoreError::MissingIndex("keyword"))
        ));
    }
}
