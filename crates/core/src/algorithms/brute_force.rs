//! Exhaustive evaluation: the correctness oracle.

use crate::algorithms::Algorithm;
use crate::budget::{Completeness, Gate, RunControl};
use crate::db::{PartCut, View};
use crate::keywords::TextualEval;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, QueryResult, SearchMetrics, UotsQuery};
use uots_network::expansion::MultiSourceExpansion;
use uots_network::RoadNetwork;
use uots_obs::{Phase, Recorder};

/// Drains one batched [`MultiSourceExpansion`] from every query location
/// over the whole network, then evaluates the exact similarity of *every*
/// trajectory. `O(m · |V| log |V| + m · Σ|τ|)` with zero pruning — the
/// reference answer and the unoptimized baseline. Over a view of several
/// parts the drain happens once and every part is evaluated from it, in
/// part order; a part whose bound falls strictly below the k-th best is
/// left unevaluated.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForce;

impl Algorithm for BruteForce {
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
        let mut metrics = SearchMetrics::for_one_query();
        let network = view.network();

        rec.enter(Phase::NetworkExpansion);
        let (ms, mut interrupted) = drain(network, query, &mut gate, &mut metrics);

        rec.enter(Phase::CandidateRefine);
        let mut topk = TopK::new(query.options().k);
        let mut cut = PartCut::new(view, query);
        if !interrupted {
            'parts: for (p, part) in view.parts().iter().enumerate() {
                let textual = TextualEval::new(query.keywords(), part.db.keyword_blocks);
                for (local, traj) in part.db.store.iter().filter(|(id, _)| part.db.is_live(*id)) {
                    if cut.is_retired(p) {
                        break;
                    }
                    if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                        interrupted = true;
                        break 'parts;
                    }
                    metrics.visited_trajectories += 1;
                    metrics.candidates += 1;
                    metrics.heap_pushes += 1;
                    cut.walk(p);
                    let (id, tx) = (part.ids.global(local), textual.eval(local, traj));
                    topk.offer(similarity::evaluate_with_multi(&ms, query, id, traj, tx));
                    cut.retire_below(topk.threshold());
                }
            }
        }
        rec.leave();
        cut.report(view, topk.threshold());
        // conservative certificate: with no per-trajectory bounds, an
        // unevaluated trajectory could score up to 1 (gap 1.0 when nothing
        // was evaluated, 1 − kth-best once the top-k filled)
        let completeness = if interrupted {
            metrics.interrupted = 1;
            Completeness::BestEffort {
                bound_gap: (1.0 - topk.threshold().max(0.0)).clamp(0.0, 1.0),
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
        "brute-force"
    }
}

/// Drains one [`MultiSourceExpansion`] from the query's locations, charging
/// every settle to `metrics` and consulting `gate` before the first settle
/// and after each one. Returns the expansion and whether the gate stopped
/// it short of a full drain. [`TextFirst`](super::TextFirst) shares it.
pub(super) fn drain<'n>(
    network: &'n RoadNetwork,
    query: &UotsQuery,
    gate: &mut Gate,
    metrics: &mut SearchMetrics,
) -> (MultiSourceExpansion<'n>, bool) {
    let mut ms = MultiSourceExpansion::new(network, query.locations());
    if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
        return (ms, true);
    }
    while ms.next_settled().is_some() {
        metrics.settled_vertices += 1;
        if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
            return (ms, true);
        }
    }
    (ms, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOptions;
    use crate::Database;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::{Sample, Trajectory, TrajectoryId, TrajectoryStore};

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        for (nodes, tags) in [
            (vec![0u32, 1, 2], vec![1u32]),
            (vec![10, 11], vec![2]),
            (vec![24], vec![1, 2]),
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
                    KeywordSet::from_ids(tags.iter().map(|&k| KeywordId(k))),
                )
                .unwrap(),
            );
        }
        s
    }

    #[test]
    fn evaluates_every_trajectory() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let r = BruteForce.run(&db, &q).unwrap();
        assert_eq!(r.metrics.visited_trajectories, 3);
        assert_eq!(r.metrics.candidates, 3);
        assert_eq!(r.metrics.settled_vertices, 25);
        assert_eq!(r.matches.len(), 1);
        // trajectory 0 passes through the query vertex itself
        assert_eq!(r.matches[0].id, TrajectoryId(0));
    }

    #[test]
    fn k_caps_the_answer_not_the_work() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(12)], KeywordSet::empty())
            .unwrap()
            .reoptioned(QueryOptions {
                k: 2,
                ..Default::default()
            })
            .unwrap();
        let r = BruteForce.run(&db, &q).unwrap();
        assert_eq!(r.matches.len(), 2);
        assert!(r.is_ranked());
        assert_eq!(r.metrics.visited_trajectories, 3);
    }

    #[test]
    fn rejects_invalid_queries() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kb = s.build_keyword_blocks();
        let db = Database::new(&net, &s, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(1000)], KeywordSet::empty()).unwrap();
        assert!(BruteForce.run(&db, &q).is_err());
    }
}
