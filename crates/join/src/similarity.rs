//! Pairwise trajectory-to-trajectory similarity.
//!
//! The join matches *pairs of trajectories* rather than a query against a
//! trajectory, so the measure must be **symmetric** (the UOTS query
//! similarity is one-sided). Following the paper family's join formulation,
//! each trajectory contributes a *half similarity* — the mean distance
//! decay from its samples to the other trajectory — and the two halves are
//! averaged:
//!
//! ```text
//! half_S(τ1→τ2) = (1/|τ1|) Σ_{v ∈ τ1} e^(−d(v.p, τ2) / decay_km)
//! Sim_S(τ1,τ2)  = (half_S(τ1→τ2) + half_S(τ2→τ1)) / 2          ∈ [0, 1]
//! half_T / Sim_T analogously over |t − t'| with decay_s
//! Sim(τ1,τ2)    = λ·Sim_S + (1−λ)·Sim_T                         ∈ [0, 1]
//! ```
//!
//! (The family's join writes the sum of halves with range `[0, 2]` and
//! thresholds `θ ∈ [0, 2]`; dividing by two keeps this workspace's `[0, 1]`
//! convention. The orderings are identical.)

use crate::JoinConfig;
use uots_network::dijkstra::ShortestPathTree;
use uots_trajectory::Trajectory;

/// The two half-contributions of one trajectory toward a pair similarity
/// (already weighted by λ; summing the two directions yields the pair's
/// similarity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Half {
    /// `λ · half_S / 2`.
    pub spatial: f64,
    /// `(1 − λ) · half_T / 2`.
    pub temporal: f64,
}

impl Half {
    /// The half's total contribution.
    #[inline]
    pub(crate) fn value(&self) -> f64 {
        self.spatial + self.temporal
    }
}

/// Exact half similarity of `from` toward `to`, given one shortest-path
/// tree per *distinct* vertex of `from` (aligned with
/// [`distinct_nodes_weighted`]'s order).
///
/// Used by the brute-force oracle; the join search derives the same halves
/// incrementally from its expansions. Both channels sum over distinct
/// values with their sample-count weights, in the search's order, so the
/// oracle's halves are bit-identical to the search's.
pub(crate) fn exact_half(
    cfg: &JoinConfig,
    trees: &[ShortestPathTree],
    weights: &[f64],
    from: &Trajectory,
    to: &Trajectory,
) -> Half {
    debug_assert_eq!(trees.len(), weights.len());
    // spatial: weighted mean over from's distinct vertices of e^(-d(v, to))
    let mut half_s = 0.0;
    for (tree, &w) in trees.iter().zip(weights) {
        let d = to
            .nodes()
            .map(|u| tree.distance(u).unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        half_s += w * (-d / cfg.decay_km).exp();
    }
    // temporal: weighted mean over from's distinct times of e^(-min |t - t'|)
    let (times, time_weights) = distinct_times_weighted(from);
    let mut half_t = 0.0;
    for (&t, &w) in times.iter().zip(&time_weights) {
        let dt = to
            .times()
            .map(|u| (t - u).abs())
            .fold(f64::INFINITY, f64::min);
        half_t += w * (-dt / cfg.decay_s).exp();
    }
    Half {
        spatial: cfg.lambda * half_s / 2.0,
        temporal: (1.0 - cfg.lambda) * half_t / 2.0,
    }
}

/// The distinct vertices of a trajectory with their sample-count weights
/// (weights sum to 1). A trajectory revisiting a vertex contributes that
/// vertex's decay once per visit in `half_S`; grouping by vertex keeps the
/// expansion source count equal to the *distinct* vertex count.
pub(crate) fn distinct_nodes_weighted(t: &Trajectory) -> (Vec<uots_network::NodeId>, Vec<f64>) {
    let mut pairs: Vec<(uots_network::NodeId, usize)> = Vec::new();
    for v in t.nodes() {
        match pairs.iter_mut().find(|(u, _)| *u == v) {
            Some((_, c)) => *c += 1,
            None => pairs.push((v, 1)),
        }
    }
    let total = t.len() as f64;
    let nodes = pairs.iter().map(|(v, _)| *v).collect();
    let weights = pairs.iter().map(|(_, c)| *c as f64 / total).collect();
    (nodes, weights)
}

/// The distinct timestamps of a trajectory with sample-count weights
/// (sum 1), for the temporal expansions.
pub(crate) fn distinct_times_weighted(t: &Trajectory) -> (Vec<f64>, Vec<f64>) {
    let mut pairs: Vec<(f64, usize)> = Vec::new();
    for ts in t.times() {
        match pairs.iter_mut().find(|(u, _)| *u == ts) {
            Some((_, c)) => *c += 1,
            None => pairs.push((ts, 1)),
        }
    }
    let total = t.len() as f64;
    let times = pairs.iter().map(|(v, _)| *v).collect();
    let weights = pairs.iter().map(|(_, c)| *c as f64 / total).collect();
    (times, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_network::dijkstra::shortest_path_tree;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::KeywordSet;
    use uots_trajectory::Sample;

    fn traj(nodes: &[u32], t0: f64) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: t0 + 60.0 * i as f64,
                })
                .collect(),
            KeywordSet::empty(),
        )
        .unwrap()
    }

    fn halves(
        cfg: &JoinConfig,
        net: &uots_network::RoadNetwork,
        a: &Trajectory,
        b: &Trajectory,
    ) -> (Half, Half) {
        let (na, wa) = distinct_nodes_weighted(a);
        let (nb, wb) = distinct_nodes_weighted(b);
        let ta: Vec<_> = na.iter().map(|&v| shortest_path_tree(net, v)).collect();
        let tb: Vec<_> = nb.iter().map(|&v| shortest_path_tree(net, v)).collect();
        (
            exact_half(cfg, &ta, &wa, a, b),
            exact_half(cfg, &tb, &wb, b, a),
        )
    }

    #[test]
    fn identical_trajectories_have_similarity_one() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let cfg = JoinConfig::default();
        let a = traj(&[0, 1, 2], 1_000.0);
        let (h1, h2) = halves(&cfg, &net, &a, &a);
        assert!((h1.value() + h2.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
        let cfg = JoinConfig::default();
        let a = traj(&[0, 1, 2, 1], 1_000.0);
        let b = traj(&[14, 20, 21], 3_000.0);
        let (h1, h2) = halves(&cfg, &net, &a, &b);
        let sim_ab = h1.value() + h2.value();
        let (g1, g2) = halves(&cfg, &net, &b, &a);
        let sim_ba = g1.value() + g2.value();
        assert!((sim_ab - sim_ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&sim_ab));
    }

    #[test]
    fn distinct_nodes_weights_sum_to_one_and_count_revisits() {
        let t = traj(&[3, 5, 3, 3], 0.0);
        let (nodes, weights) = distinct_nodes_weighted(&t);
        assert_eq!(nodes, vec![NodeId(3), NodeId(5)]);
        assert!((weights[0] - 0.75).abs() < 1e-12);
        assert!((weights[1] - 0.25).abs() < 1e-12);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_times_group_duplicates() {
        let t = Trajectory::new(
            vec![
                Sample {
                    node: NodeId(0),
                    time: 10.0,
                },
                Sample {
                    node: NodeId(1),
                    time: 10.0,
                },
                Sample {
                    node: NodeId(2),
                    time: 20.0,
                },
            ],
            KeywordSet::empty(),
        )
        .unwrap();
        let (times, weights) = distinct_times_weighted(&t);
        assert_eq!(times, vec![10.0, 20.0]);
        assert!((weights[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spatially_distant_pairs_decay_toward_temporal_only() {
        let net = grid_city(&GridCityConfig::tiny(12)).unwrap();
        let cfg = JoinConfig {
            decay_km: 0.5,
            ..Default::default()
        };
        let a = traj(&[0, 1], 1_000.0);
        let far = traj(&[142, 143], 1_000.0); // opposite corner
        let (h1, h2) = halves(&cfg, &net, &a, &far);
        let sim = h1.value() + h2.value();
        // temporal part is perfect (same departure), spatial nearly zero
        assert!(h1.spatial + h2.spatial < 0.01);
        assert!(sim < 0.55 && sim > 0.45);
    }
}
