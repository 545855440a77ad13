//! Order-aware match refinement (future-work extension).
//!
//! The base UOTS similarity ignores the *visiting order* of the intended
//! places — a trajectory passing the places in reverse scores exactly the
//! same. The paper family flags order sensitivity as future work ("take the
//! visiting sequence of sample points into account when matching"). This
//! module implements it as a cheap **re-ranking** step over a computed
//! result: for each match, measure how consistently the trajectory visits
//! the query places in the requested order and blend that into the score.
//!
//! Order consistency is the length of the longest increasing run of
//! nearest-sample indices relative to the query order, normalized to
//! `[0, 1]` (longest increasing subsequence / m). A trajectory visiting all
//! places in order scores 1; a reversed one scores `1/m`.
//!
//! The blended score lives in [`Match::order_blend`], never in
//! [`Match::similarity`] — the reported similarity always stays the pure
//! channel combination, so a certified result's components remain
//! auditable after a rerank. Reranking also re-certifies
//! [`Completeness`]: the blend can surface trajectories the original
//! top-k never reported, so an exact result generally becomes a certified
//! best effort (see [`rerank_by_order`]).

use crate::budget::Completeness;
use crate::{Database, Match, QueryResult, UotsQuery};
use std::collections::{HashMap, HashSet};
use uots_network::expansion::NetworkExpansion;
use uots_network::NodeId;

/// For each query location, the index of the trajectory sample nearest to
/// it (network distance), then the normalized longest-increasing-subsequence
/// length of that index sequence. Each per-location expansion goes only as
/// far as the trajectory's vertex set requires.
///
/// The expansion bound is exact, not heuristic: Dijkstra settles in
/// nondecreasing distance, so once every distinct trajectory vertex is
/// settled — or the unsettled lower bound strictly exceeds the smallest
/// distance found so far — no undelivered vertex can change the *first
/// minimal sample index*, which is all the consistency score consumes.
/// (Strictness matters: an unsettled vertex tying the minimum at an
/// earlier sample index would change that index, so expansion continues
/// through the whole tie plateau.) Scores are bit-identical to the
/// unbounded full-tree computation (asserted by this module's tests).
pub fn order_consistency(db: &Database<'_>, query: &UotsQuery, m: &Match) -> f64 {
    let traj = db.store.get(m.id);
    let verts: HashSet<NodeId> = traj.nodes().collect();
    let mut nearest_sample_indices = Vec::with_capacity(query.num_locations());
    for &o in query.locations() {
        let mut dist: HashMap<NodeId, f64> = HashMap::with_capacity(verts.len());
        let mut src = NetworkExpansion::from_source(db.network, o);
        let mut best_d = f64::INFINITY;
        while dist.len() < verts.len() && src.unsettled_lower_bound() <= best_d {
            let Some(s) = src.next_settled() else {
                break; // component exhausted: the rest is exactly ∞
            };
            if verts.contains(&s.node) {
                dist.insert(s.node, s.dist);
                best_d = best_d.min(s.dist);
            }
        }
        // Vertices left unsettled by the bound have true distance strictly
        // above `best_d`; substituting ∞ cannot move the first index that
        // attains the minimum.
        let mut best = 0usize;
        let mut best_scan = f64::INFINITY;
        for (i, s) in traj.samples().iter().enumerate() {
            let d = dist.get(&s.node).copied().unwrap_or(f64::INFINITY);
            if d < best_scan {
                best_scan = d;
                best = i;
            }
        }
        nearest_sample_indices.push(best);
    }
    lis_length(&nearest_sample_indices) as f64 / nearest_sample_indices.len() as f64
}

/// Longest nondecreasing subsequence length (patience sorting, `O(n log n)`).
fn lis_length(xs: &[usize]) -> usize {
    let mut tails: Vec<usize> = Vec::new();
    for &x in xs {
        // nondecreasing: find first tail strictly greater than x
        let pos = tails.partition_point(|&t| t <= x);
        if pos == tails.len() {
            tails.push(x);
        } else {
            tails[pos] = x;
        }
    }
    tails.len()
}

/// Re-ranks `result` in place, storing the blended score
/// `(1 − order_weight) · similarity + order_weight · consistency` in each
/// match's [`Match::order_blend`] and re-sorting by it. `similarity` and
/// the channel components are left untouched.
///
/// The completeness certificate is re-derived. With `order_weight = 0` the
/// rerank is the identity and the certificate is preserved. Otherwise an
/// unreported trajectory — whose similarity the original certificate
/// bounds by `kth-best + gap` — could blend as high as
/// `(1 − w) · min(1, kth + gap) + w · 1`, so the result is downgraded to
/// [`Completeness::BestEffort`] with the gap between that ceiling and the
/// new k-th best blend, unless every live trajectory is already reported
/// (then the rerank is total and exactness survives).
///
/// # Panics
///
/// Panics when `order_weight` is outside `[0, 1]`.
pub fn rerank_by_order(
    db: &Database<'_>,
    query: &UotsQuery,
    result: &mut QueryResult,
    order_weight: f64,
) {
    assert!(
        (0.0..=1.0).contains(&order_weight),
        "order_weight must be in [0, 1]"
    );
    if order_weight == 0.0 || result.matches.is_empty() {
        return; // identity: blend == similarity, certificate unchanged
    }
    let kth = result
        .matches
        .last()
        .map_or(f64::NEG_INFINITY, |m| m.similarity);
    for m in &mut result.matches {
        let c = order_consistency(db, query, m);
        m.order_blend = Some((1.0 - order_weight) * m.similarity + order_weight * c);
    }
    result.matches.sort_by(Match::ranking_cmp);
    let everything_reported =
        result.completeness.is_exact() && result.matches.len() >= db.num_live();
    if !everything_reported {
        let unreported_sim_ub = (kth + result.completeness.bound_gap()).min(1.0);
        let unreported_blend_ub = (1.0 - order_weight) * unreported_sim_ub + order_weight;
        let new_kth_blend = result
            .matches
            .last()
            .map_or(f64::NEG_INFINITY, Match::rank_score);
        result.completeness = Completeness::BestEffort {
            bound_gap: (unreported_blend_ub - new_kth_blend).clamp(0.0, 1.0),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchMetrics;
    use uots_network::dijkstra::shortest_path_tree;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_text::KeywordSet;
    use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

    fn traj(nodes: &[u32]) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: 60.0 * i as f64,
                })
                .collect(),
            KeywordSet::empty(),
        )
        .unwrap()
    }

    #[test]
    fn lis_known_values() {
        assert_eq!(lis_length(&[0, 1, 2, 3]), 4);
        assert_eq!(lis_length(&[3, 2, 1, 0]), 1);
        assert_eq!(lis_length(&[1, 3, 2, 4]), 3);
        assert_eq!(lis_length(&[2, 2, 2]), 3); // nondecreasing
        assert_eq!(lis_length(&[]), 0);
    }

    #[test]
    fn forward_trajectory_scores_higher_than_reverse() {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let mut store = TrajectoryStore::new();
        let fwd = store.push(traj(&[0, 2, 4, 6])); // bottom row, left→right
        let rev = store.push(traj(&[6, 4, 2, 0]));
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        // places in left→right order
        let q = UotsQuery::new(vec![NodeId(0), NodeId(3), NodeId(6)], KeywordSet::empty()).unwrap();
        let mk = |id| Match {
            id,
            similarity: 0.5,
            spatial: 0.5,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        };
        let cf = order_consistency(&db, &q, &mk(fwd));
        let cr = order_consistency(&db, &q, &mk(rev));
        assert!((cf - 1.0).abs() < 1e-12, "forward consistency {cf}");
        assert!(cr < cf, "reverse {cr} must be below forward {cf}");

        // re-ranking flips a tie in favour of the order-consistent one
        let mut result = QueryResult {
            matches: vec![mk(fwd), mk(rev)],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        rerank_by_order(&db, &q, &mut result, 0.5);
        assert_eq!(result.matches[0].id, fwd);
        assert!(result.matches[0].rank_score() > result.matches[1].rank_score());
    }

    #[test]
    fn zero_weight_preserves_ranking() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let mut store = TrajectoryStore::new();
        let a = store.push(traj(&[0, 1]));
        let b = store.push(traj(&[24, 23]));
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let mut result = QueryResult {
            matches: vec![
                Match {
                    id: a,
                    similarity: 0.9,
                    spatial: 0.9,
                    textual: 0.0,
                    temporal: 0.0,
                    order_blend: None,
                },
                Match {
                    id: b,
                    similarity: 0.2,
                    spatial: 0.2,
                    textual: 0.0,
                    temporal: 0.0,
                    order_blend: None,
                },
            ],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        rerank_by_order(&db, &q, &mut result, 0.0);
        assert_eq!(result.matches[0].id, a);
        assert!((result.matches[0].similarity - 0.9).abs() < 1e-12);
        // zero weight is the identity: no blend stored, certificate kept
        assert_eq!(result.matches[0].order_blend, None);
        assert!(result.completeness.is_exact());
    }

    /// Regression (pre-fix `rerank_by_order` overwrote `similarity` with
    /// the blended score): after a rerank the similarity must still be the
    /// pure channel combination and the blend must live in `order_blend`.
    #[test]
    fn rerank_keeps_similarity_pure_and_downgrades_completeness() {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let mut store = TrajectoryStore::new();
        let fwd = store.push(traj(&[0, 2, 4, 6]));
        let rev = store.push(traj(&[6, 4, 2, 0]));
        // a third live trajectory the k=2 result does not report, so the
        // exact certificate cannot survive a weighted rerank
        store.push(traj(&[63]));
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(3), NodeId(6)], KeywordSet::empty()).unwrap();
        let mk = |id, sim| Match {
            id,
            similarity: sim,
            spatial: sim,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        };
        let mut result = QueryResult {
            matches: vec![mk(rev, 0.8), mk(fwd, 0.7)],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        rerank_by_order(&db, &q, &mut result, 0.6);
        for m in &result.matches {
            let sim = if m.id == rev { 0.8 } else { 0.7 };
            assert!(
                (m.similarity - sim).abs() < 1e-12,
                "similarity must stay the channel combination, got {}",
                m.similarity
            );
            assert_eq!(m.spatial, sim, "components untouched");
            let blend = m.order_blend.expect("rerank stores the blend");
            assert!((0.0..=1.0).contains(&blend));
        }
        // the order-consistent trajectory wins despite lower similarity
        assert_eq!(result.matches[0].id, fwd);
        // and the stale Exact certificate was downgraded
        assert!(
            !result.completeness.is_exact(),
            "unreported trajectories can out-blend the reported k: {:?}",
            result.completeness
        );
        assert!(result.completeness.bound_gap() <= 1.0);
        assert!(result.is_ranked(), "ranking invariant holds on the blend");
    }

    /// When the result already reports every live trajectory, the rerank
    /// is a total re-sort and exactness survives.
    #[test]
    fn rerank_of_total_result_stays_exact() {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let mut store = TrajectoryStore::new();
        let fwd = store.push(traj(&[0, 2, 4, 6]));
        let rev = store.push(traj(&[6, 4, 2, 0]));
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(3), NodeId(6)], KeywordSet::empty()).unwrap();
        let mk = |id, sim| Match {
            id,
            similarity: sim,
            spatial: sim,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        };
        let mut result = QueryResult {
            matches: vec![mk(rev, 0.8), mk(fwd, 0.7)],
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        };
        rerank_by_order(&db, &q, &mut result, 0.5);
        assert!(result.completeness.is_exact());
        assert_eq!(result.matches[0].id, fwd);
    }

    /// The bounded expansion must agree with the unbounded full-tree
    /// computation to the last bit — including on stores with unreachable
    /// vertices.
    #[test]
    fn bounded_consistency_matches_the_full_tree() {
        let net = grid_city(&GridCityConfig::tiny(8)).unwrap();
        let mut store = TrajectoryStore::new();
        let ids = [
            store.push(traj(&[0, 2, 4, 6])),
            store.push(traj(&[6, 4, 2, 0])),
            store.push(traj(&[9, 18, 27, 36])),
            store.push(traj(&[63, 0, 63])),
        ];
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        let queries = [
            UotsQuery::new(vec![NodeId(0), NodeId(3), NodeId(6)], KeywordSet::empty()).unwrap(),
            UotsQuery::new(vec![NodeId(7), NodeId(56)], KeywordSet::empty()).unwrap(),
            UotsQuery::new(vec![NodeId(5)], KeywordSet::empty()).unwrap(),
        ];
        let mk = |id| Match {
            id,
            similarity: 0.5,
            spatial: 0.5,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        };
        for q in &queries {
            for &id in &ids {
                // first sample index at the minimal full-tree distance
                let nearest: Vec<usize> = (q.locations().iter())
                    .map(|&o| {
                        let tree = shortest_path_tree(&net, o);
                        let d = |s: &Sample| tree.distance(s.node).unwrap_or(f64::INFINITY);
                        let samples = store.get(id).samples();
                        (0..samples.len()).fold(0, |best, i| {
                            if d(&samples[i]) < d(&samples[best]) {
                                i
                            } else {
                                best
                            }
                        })
                    })
                    .collect();
                let full = lis_length(&nearest) as f64 / nearest.len() as f64;
                let bounded = order_consistency(&db, q, &mk(id));
                assert_eq!(bounded.to_bits(), full.to_bits(), "{id}");
            }
        }
    }
}
