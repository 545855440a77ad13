//! Exhaustive evaluation: the correctness oracle.

use crate::algorithms::Algorithm;
use crate::budget::{Completeness, Gate, RunControl};
use crate::db::{PartCut, View};
use crate::keywords::TextualEval;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, QueryResult, SearchMetrics, UotsQuery};
use uots_network::dijkstra::shortest_path_tree;
use uots_network::expansion::MultiSourceExpansion;
use uots_obs::{Phase, Recorder};

/// Computes one full shortest-path tree per query location, then evaluates
/// the exact similarity of *every* trajectory. `O(m · |V| log |V| + m · Σ|τ|)`
/// with zero pruning — the reference answer and the unoptimized baseline.
///
/// With layout tables attached, the trees are one batched
/// [`MultiSourceExpansion`] drain instead; distances and results are
/// bit-identical to the tree path. Over a view of several parts the drain
/// happens once and every part is evaluated from it, in part order; a part
/// whose bound falls strictly below the k-th best is left unevaluated.
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
        let mut trees = Vec::new();
        let mut multi: Option<MultiSourceExpansion<'_>> = None;
        let mut interrupted = false;
        if view.parts()[0].db.layout.is_some() {
            // layout path: one multi-source drain over a shared frontier.
            // The gate is consulted per settle instead of per source; any
            // settle budget below the full drain interrupts either way
            // with the identical (empty, gap-1) best-effort result, and a
            // completed drain leaves the same total settle count the
            // per-tree path accumulates.
            let mut ms = MultiSourceExpansion::new(network, query.locations());
            if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                interrupted = true;
            } else {
                while ms.next_settled().is_some() {
                    metrics.settled_vertices += 1;
                    if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                        interrupted = true;
                        break;
                    }
                }
            }
            multi = Some(ms);
        } else {
            for &v in query.locations() {
                // a tree settles its whole component at once, so count it
                // against the budget before paying for the next one
                if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                    interrupted = true;
                    break;
                }
                let t = shortest_path_tree(network, v);
                metrics.settled_vertices += t.reached_count();
                trees.push(t);
            }
        }

        rec.enter(Phase::CandidateRefine);
        let mut topk = TopK::new(query.options().k);
        let mut cut = PartCut::new(view, query);
        if !interrupted {
            'parts: for (p, part) in view.parts().iter().enumerate() {
                let textual = TextualEval::new(
                    query.options().text_measure,
                    query.keywords(),
                    part.db.layout.map(|l| &l.keywords),
                );
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
                    topk.offer(if let Some(ms) = &multi {
                        similarity::evaluate_with_multi(ms, query, id, traj, tx)
                    } else {
                        similarity::evaluate_with_trees_textual(&trees, query, id, traj, tx)
                    });
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
        let db = Database::new(&net, &s, &vidx);
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
        let db = Database::new(&net, &s, &vidx);
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
        let db = Database::new(&net, &s, &vidx);
        let q = UotsQuery::new(vec![NodeId(1000)], KeywordSet::empty()).unwrap();
        assert!(BruteForce.run(&db, &q).is_err());
    }
}
