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
//! pays for one full Dijkstra tree per query location up front — precisely
//! the "costly to acquire network distances" weakness the paper attributes
//! to baselines that are not driven by the spatial domain.

use crate::algorithms::Algorithm;
use crate::budget::{Completeness, Gate, RunControl};
use crate::csr::MultiSourceExpansion;
use crate::distcache::{CachedSource, SearchContext};
use crate::keywords::TextualEval;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, Database, QueryResult, SearchMetrics, UotsQuery};
use uots_network::dijkstra::shortest_path_tree;
use uots_obs::{Phase, Recorder};
use uots_trajectory::TrajectoryId;

/// The textual-first baseline. Requires
/// [`Database::keyword_index`][crate::Database::keyword_index].
///
/// With a [`SearchContext`] cache the up-front per-location trees are
/// acquired by draining [`CachedSource`]s to exhaustion (replaying cached
/// prefixes) and the drained prefixes are published back on clean
/// completion; distances and results are bit-identical either way. As
/// one shard run of a scattered query ([`SearchContext::scattered`]) the
/// drain goes through the query's shared [`crate::SettleLogs`] — one drain
/// per query, replayed by the other shards — and the refine loop stops at
/// `max(k-th best, floor)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextFirst;

impl Algorithm for TextFirst {
    fn run_ctx(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
        ctx: &SearchContext,
    ) -> Result<QueryResult, CoreError> {
        db.validate(query)?;
        let keyword_index = db.keyword_index.ok_or(CoreError::MissingIndex("keyword"))?;
        if ctl.is_cancelled() || ctl.deadline_passed() {
            return Ok(QueryResult::interrupted_empty());
        }
        let start = std::time::Instant::now();
        let mut gate = Gate::new(&query.options().budget, ctl);
        let mut metrics = SearchMetrics::for_one_query();
        let opts = query.options();
        let w = opts.weights;

        // ---- filter: exact textual similarity via the inverted index ----
        // Trajectories sharing no keyword have Sim_T = 0 (or, for an empty
        // query keyword set, Sim_T = 1 exactly when the trajectory is also
        // untagged — the index can't enumerate those, so fall back to a full
        // textual pass in that edge case).
        rec.enter(Phase::TextFilter);
        let textual = TextualEval::new(
            opts.text_measure,
            query.keywords(),
            db.layout.map(|l| &l.keywords),
        );
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
            // trajectories sharing no keyword: bound without textual term;
            // representing them individually would defeat the filter, so a
            // single pass adds them lazily only if the bound can matter —
            // here we append them with their common bound and let the
            // refine loop's early exit skip them wholesale.
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
        // descending bound, ties by ascending id for determinism
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        // ---- refine: exact evaluation in bound order ----
        rec.enter(Phase::NetworkExpansion);
        // drained through `CachedSource`s whenever someone else reads the
        // drain: a distance cache, or the other shard runs of a scattered
        // query (who then replay it instead of draining again)
        let cached = ctx.cache().is_some() || ctx.is_scattered();
        let mut trees = Vec::new();
        let mut sources: Vec<CachedSource<'_>> = Vec::new();
        let mut multi: Option<MultiSourceExpansion<'_>> = None;
        let mut interrupted = false;
        if let Some(layout) = db.layout.filter(|_| !cached) {
            // CSR layout: one shared-frontier drain (see brute_force for
            // why per-settle gating yields identical outputs)
            let srcs: Vec<u32> = query.locations().iter().map(|v| v.0).collect();
            let mut ms = MultiSourceExpansion::new(&layout.csr, &srcs);
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
            for (i, &v) in query.locations().iter().enumerate() {
                if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                    interrupted = true;
                    break;
                }
                if cached {
                    let mut src = CachedSource::for_location(db.network, ctx, i, v);
                    rec.enter(Phase::CacheReplay);
                    while src.in_replay() {
                        src.next_settled();
                        metrics.settled_vertices += 1;
                    }
                    rec.enter(Phase::NetworkExpansion);
                    while src.next_settled().is_some() {
                        metrics.settled_vertices += 1;
                    }
                    sources.push(src);
                } else {
                    let t = shortest_path_tree(db.network, v);
                    metrics.settled_vertices += t.reached_count();
                    trees.push(t);
                }
            }
        }

        rec.enter(Phase::CandidateRefine);
        let mut topk = TopK::new(opts.k);
        let floor = ctx.floor();
        // index of the first bound not yet refined — the interruption
        // certificate: every unrefined trajectory scores at most its bound,
        // and bounds are sorted descending
        let mut next_bound = scored.first().map_or(0.0, |&(ub, _)| ub);
        if !interrupted {
            for &(ub, id) in &scored {
                next_bound = ub;
                // strict: a trajectory whose bound ties the k-th best could
                // still realize exactly that similarity and win the id
                // tie-break, so only `kth > ub` proves it irrelevant (the
                // floor of a scattered run stands in for a k-th best held
                // elsewhere)
                if topk.threshold().max(floor) > ub {
                    next_bound = 0.0;
                    break; // no later trajectory can beat the k-th best
                }
                if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                    interrupted = true;
                    break;
                }
                metrics.visited_trajectories += 1;
                metrics.candidates += 1;
                let traj = db.store.get(id);
                let tx = textual.eval(id, traj);
                let m = if cached {
                    similarity::evaluate_with_sources_textual(&sources, query, id, traj, tx)
                } else if let Some(ms) = &multi {
                    similarity::evaluate_with_multi(ms, query, id, traj, tx)
                } else {
                    similarity::evaluate_with_trees_textual(&trees, query, id, traj, tx)
                };
                debug_assert!(m.similarity <= ub + 1e-9, "bound must dominate exact");
                metrics.heap_pushes += 1;
                topk.offer(m);
                next_bound = 0.0; // consumed: exact if the loop ends here
            }
        }
        rec.leave();
        for src in sources {
            src.settle(!interrupted);
        }

        let completeness = if interrupted {
            metrics.interrupted = 1;
            Completeness::BestEffort {
                bound_gap: (next_bound - topk.threshold().max(floor).max(0.0)).clamp(0.0, 1.0),
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
        kidx: &'a uots_index::KeywordInvertedIndex<TrajectoryId>,
    ) -> Database<'a> {
        Database::new(net, s, vidx).with_keyword_index(kidx)
    }

    #[test]
    fn matches_brute_force_across_lambdas() {
        let (net, s) = fixture();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kidx = s.build_keyword_index(16);
        let d = db(&net, &s, &vidx, &kidx);
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
        let kidx = s.build_keyword_index(16);
        let d = db(&net, &s, &vidx, &kidx);
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
        let kidx = s.build_keyword_index(16);
        let d = db(&net, &s, &vidx, &kidx);
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
        let d = Database::new(&net, &s, &vidx);
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[1])).unwrap();
        assert!(matches!(
            TextFirst.run(&d, &q),
            Err(CoreError::MissingIndex("keyword"))
        ));
    }
}
