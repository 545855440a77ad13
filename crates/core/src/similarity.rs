//! The UOTS similarity model — exact evaluation.
//!
//! ```text
//! d(o, τ)     = min_{p ∈ τ} sd(o, p)                      (network distance)
//! Sim_S(q, τ) = (1/m) Σ_{o ∈ O} e^(−d(o,τ) / decay_km)
//! Sim_T(q, τ) = Jaccard(ψ_q, ψ_τ)
//! Sim_Tm(q,τ) = (1/|times|) Σ_t e^(−min_i |t − t_i| / decay_s)
//! Sim(q, τ)   = w_s·Sim_S + w_tx·Sim_T + w_tm·Sim_Tm
//! ```
//!
//! All channels map into `[0, 1]`, so the combined similarity does too.
//! Unreachable places contribute `e^(−∞) = 0`, which composes without
//! special cases.
//!
//! This module computes the *exact* values (given exact distances); the
//! engine's upper bounds live in the crate-private `engine` module.

use crate::query::UotsQuery;
use crate::result::Match;
use uots_network::expansion::MultiSourceExpansion;
use uots_trajectory::{Trajectory, TrajectoryId};

/// Mean exponential decay over per-place distances:
/// `(1/n) Σ e^(−d_i / decay)`. Infinite distances contribute zero.
///
/// # Panics
///
/// Panics (debug) when `dists` is empty or `decay` is non-positive.
#[inline]
pub(crate) fn decay_mean(dists: &[f64], decay: f64) -> f64 {
    debug_assert!(!dists.is_empty());
    debug_assert!(decay > 0.0);
    let sum: f64 = dists.iter().map(|&d| (-d / decay).exp()).sum();
    sum / dists.len() as f64
}

/// [`decay_mean`] over terms `e^(−d_i / decay)` computed beforehand: the
/// same sum in the same order, so the same bits.
#[inline]
pub(crate) fn mean_of_terms(terms: &[f64]) -> f64 {
    debug_assert!(!terms.is_empty());
    let sum: f64 = terms.iter().sum();
    sum / terms.len() as f64
}

/// Exact spatial channel value from per-location point-to-trajectory
/// distances.
#[inline]
pub(crate) fn spatial_component(dists: &[f64], decay_km: f64) -> f64 {
    decay_mean(dists, decay_km)
}

/// Exact temporal channel value from per-preferred-time minimal gaps.
/// Returns 0 when the query has no temporal preference.
#[inline]
pub(crate) fn temporal_component(dts: &[f64], decay_s: f64) -> f64 {
    if dts.is_empty() {
        return 0.0;
    }
    decay_mean(dts, decay_s)
}

/// Combines the channel values with the query's weights.
#[inline]
pub(crate) fn combine(query: &UotsQuery, spatial: f64, textual: f64, temporal: f64) -> f64 {
    let w = query.options().weights;
    w.spatial * spatial + w.textual * textual + w.temporal * temporal
}

/// Exact per-location network distances `d(o_i, τ)` read off a **fully
/// drained** [`MultiSourceExpansion`] (source `i` = query location `i`):
/// the least distance over the trajectory's vertices, folded in sample
/// order. Unreachable places yield `f64::INFINITY`.
pub(crate) fn spatial_distances_from_multi(
    ms: &MultiSourceExpansion<'_>,
    traj: &Trajectory,
) -> Vec<f64> {
    (0..ms.num_sources())
        .map(|si| {
            traj.nodes()
                .map(|v| ms.distance(si, v).unwrap_or(f64::INFINITY))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Exact per-preferred-time minimal gaps `min_i |t − t_i|`.
pub(crate) fn temporal_gaps(times: &[f64], traj: &Trajectory) -> Vec<f64> {
    times
        .iter()
        .map(|&t| {
            traj.times()
                .map(|ti| (t - ti).abs())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Fully evaluates one trajectory against a query from a fully drained
/// [`MultiSourceExpansion`] and the trajectory's textual channel value
/// (read off the keyword table by the caller). This is the reference
/// ("ground truth") evaluation every algorithm must agree with.
pub(crate) fn evaluate_with_multi(
    ms: &MultiSourceExpansion<'_>,
    query: &UotsQuery,
    id: TrajectoryId,
    traj: &Trajectory,
    textual: f64,
) -> Match {
    debug_assert_eq!(ms.num_sources(), query.num_locations());
    let sdists = spatial_distances_from_multi(ms, traj);
    finish_match(&sdists, textual, query, id, traj)
}

/// Shared tail of every exact evaluation: channel composition from the
/// per-location distances and the textual value, in the one canonical
/// operation order.
fn finish_match(
    sdists: &[f64],
    textual: f64,
    query: &UotsQuery,
    id: TrajectoryId,
    traj: &Trajectory,
) -> Match {
    let spatial = spatial_component(sdists, query.options().decay_km);
    let temporal = if query.times().is_empty() {
        0.0
    } else {
        temporal_component(&temporal_gaps(query.times(), traj), query.options().decay_s)
    };
    Match {
        id,
        similarity: combine(query, spatial, textual, temporal),
        spatial,
        textual,
        temporal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryOptions, Weights};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::Sample;

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    fn traj(nodes: &[u32], t0: f64, tags: &[u32]) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: t0 + 60.0 * i as f64,
                })
                .collect(),
            kws(tags),
        )
        .unwrap()
    }

    fn drained<'n>(
        net: &'n uots_network::RoadNetwork,
        sources: &[NodeId],
    ) -> MultiSourceExpansion<'n> {
        let mut ms = MultiSourceExpansion::new(net, sources);
        while ms.next_settled().is_some() {}
        ms
    }

    /// The textual channel by the merge walk, the table's reference.
    fn textual(q: &UotsQuery, t: &Trajectory) -> f64 {
        uots_text::jaccard(q.keywords(), t.keywords())
    }

    #[test]
    fn decay_mean_known_values() {
        assert!((decay_mean(&[0.0], 1.0) - 1.0).abs() < 1e-12);
        assert!((decay_mean(&[1.0], 1.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((decay_mean(&[0.0, f64::INFINITY], 1.0) - 0.5).abs() < 1e-12);
        // decay scale stretches the distance axis
        assert!((decay_mean(&[2.0], 2.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn decay_mean_is_in_unit_interval_and_monotone() {
        let d1 = decay_mean(&[0.5, 1.0, 3.0], 1.0);
        let d2 = decay_mean(&[0.6, 1.0, 3.0], 1.0);
        assert!((0.0..=1.0).contains(&d1));
        assert!(d2 < d1, "larger distances must lower the similarity");
    }

    #[test]
    fn evaluate_on_a_hand_checkable_grid() {
        // 5×5 unit lattice; trajectory along the bottom row
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let ms = drained(&net, &[NodeId(0), NodeId(12)]);
        let t = traj(&[0, 1, 2, 3, 4], 0.0, &[1, 2]);
        let q = UotsQuery::with_options(
            vec![NodeId(0), NodeId(12)],
            kws(&[2, 3]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.5).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let m = evaluate_with_multi(&ms, &q, TrajectoryId(0), &t, textual(&q, &t));
        // d(v0, τ) = 0; d(v12, τ) = 2 (v12 = (2,2), nearest sample v2 = (2,0))
        let expect_spatial = (1.0 + (-2.0f64).exp()) / 2.0;
        assert!((m.spatial - expect_spatial).abs() < 1e-12);
        // Jaccard({2,3}, {1,2}) = 1/3
        assert!((m.textual - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.similarity - (0.5 * expect_spatial + 0.5 / 3.0)).abs() < 1e-12);
        assert_eq!(m.temporal, 0.0);
    }

    #[test]
    fn temporal_gaps_and_component() {
        let t = traj(&[0, 1], 1_000.0, &[]); // samples at 1000 and 1060
        let gaps = temporal_gaps(&[1_030.0, 2_000.0], &t);
        assert_eq!(gaps, vec![30.0, 940.0]);
        let sim = temporal_component(&gaps, 1_800.0);
        let expect = ((-30.0f64 / 1800.0).exp() + (-940.0f64 / 1800.0).exp()) / 2.0;
        assert!((sim - expect).abs() < 1e-12);
        assert_eq!(temporal_component(&[], 1_800.0), 0.0);
    }

    #[test]
    fn lambda_extremes_isolate_channels() {
        let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
        let ms = drained(&net, &[NodeId(0)]);
        let t = traj(&[5], 0.0, &[7]);

        let spatial_only = UotsQuery::with_options(
            vec![NodeId(0)],
            kws(&[7]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(1.0).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let m = evaluate_with_multi(
            &ms,
            &spatial_only,
            TrajectoryId(0),
            &t,
            textual(&spatial_only, &t),
        );
        assert!((m.similarity - m.spatial).abs() < 1e-12);

        let textual_only = spatial_only
            .reoptioned(QueryOptions {
                weights: Weights::lambda(0.0).unwrap(),
                ..Default::default()
            })
            .unwrap();
        let m = evaluate_with_multi(
            &ms,
            &textual_only,
            TrajectoryId(0),
            &t,
            textual(&textual_only, &t),
        );
        assert!((m.similarity - 1.0).abs() < 1e-12); // exact tag match
    }

    #[test]
    fn unreachable_location_contributes_zero() {
        // trajectory on a vertex unreachable from the tree source would need
        // a disconnected graph; emulate with INFINITY distances directly
        let s = spatial_component(&[f64::INFINITY, 0.0], 1.0);
        assert!((s - 0.5).abs() < 1e-12);
    }
}
