//! Bounded top-k collector.
//!
//! Keeps the `k` best [`Match`]es seen so far and exposes the **threshold**
//! — the k-th best similarity — that the search compares against its global
//! upper bound to decide termination. Ties are broken by ascending
//! trajectory id, the same total order used everywhere
//! ([`Match::ranking_cmp`]), so every algorithm produces identical rankings.
//!
//! ## The merge total order
//!
//! `ranking_cmp` is a *strict* total order over matches with distinct ids:
//! higher `similarity` ranks first, and exact score ties resolve
//! by **ascending trajectory id**. Because the order is total and ids are
//! unique, the set of `k` best matches of any multiset is unique and
//! **independent of offer order** — offering the same matches to a `TopK`
//! in any permutation, or partitioned across several collectors whose
//! outputs are re-offered to a final one, yields bit-identical results.
//! A sharded query ([`crate::shard`]) relies on it: its one run offers
//! every part's matches, in global ids, in whatever order its walk
//! reaches them, and still answers bit-identically to the
//! single-store engine even when scores collide at the k boundary.

use crate::result::Match;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Wrapper making the *worst* retained match sit on top of the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WorstFirst(Match);

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse the ranking order so the worst
        // (lowest-ranked) match is on top and gets evicted first.
        self.0.ranking_cmp(&other.0)
    }
}

/// A bounded collector of the `k` best matches.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    /// Creates a collector for `k ≥ 1` results. Nothing is reserved up
    /// front: the heap grows with what is offered (at most the live
    /// trajectories), whatever `k` asks for.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TopK {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Offers a match; returns `true` when it was retained.
    pub fn offer(&mut self, m: Match) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(m));
            return true;
        }
        let worst = self.heap.peek().expect("heap is full");
        if m.ranking_cmp(&worst.0) == Ordering::Less {
            self.heap.pop();
            self.heap.push(WorstFirst(m));
            true
        } else {
            false
        }
    }

    /// The termination threshold: the k-th best similarity, or `-∞` while
    /// fewer than `k` matches are held. A search may stop once its global
    /// upper bound on unseen trajectories drops to (or below) this value.
    pub(crate) fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap.peek().expect("non-empty").0.similarity
        }
    }

    /// Extracts the matches, best first.
    pub fn into_sorted(self) -> Vec<Match> {
        let mut v: Vec<Match> = self.heap.into_iter().map(|w| w.0).collect();
        v.sort_by(Match::ranking_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_trajectory::TrajectoryId;

    fn m(id: u32, sim: f64) -> Match {
        Match {
            id: TrajectoryId(id),
            similarity: sim,
            spatial: 0.0,
            textual: 0.0,
            temporal: 0.0,
        }
    }

    #[test]
    fn keeps_k_best() {
        let mut t = TopK::new(3);
        for (id, s) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.3)] {
            t.offer(m(id, s));
        }
        let out = t.into_sorted();
        let ids: Vec<u32> = out.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    fn threshold_tracks_kth_best() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        t.offer(m(0, 0.4));
        assert_eq!(t.threshold(), f64::NEG_INFINITY); // only 1 of 2
        t.offer(m(1, 0.8));
        assert_eq!(t.threshold(), 0.4);
        t.offer(m(2, 0.6));
        assert_eq!(t.threshold(), 0.6);
        t.offer(m(3, 0.1)); // rejected
        assert_eq!(t.threshold(), 0.6);
    }

    #[test]
    fn offer_reports_retention() {
        let mut t = TopK::new(1);
        assert!(t.offer(m(0, 0.5)));
        assert!(!t.offer(m(1, 0.4)));
        assert!(t.offer(m(2, 0.6)));
        assert_eq!(t.into_sorted()[0].id, TrajectoryId(2));
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let mut t = TopK::new(2);
        t.offer(m(5, 0.5));
        t.offer(m(1, 0.5));
        t.offer(m(3, 0.5)); // same sim as worst (id 5) but lower id: replaces it
        let ids: Vec<u32> = t.into_sorted().iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn fewer_offers_than_k() {
        let mut t = TopK::new(10);
        t.offer(m(0, 0.2));
        t.offer(m(1, 0.9));
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, TrajectoryId(1));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    /// The merge total order: with duplicated scores straddling the k
    /// boundary, any offer order — including a two-level merge of
    /// per-partition collectors, as the sharded coordinator performs —
    /// must produce the identical ranking.
    #[test]
    fn merge_is_offer_order_invariant_at_k_boundary() {
        // four matches tie at 0.5 for the two slots behind the leader
        let pool = [m(7, 0.5), m(0, 0.9), m(2, 0.5), m(5, 0.5), m(1, 0.5)];
        let mut reference = TopK::new(3);
        for x in pool {
            reference.offer(x);
        }
        let reference = reference.into_sorted();
        let ids: Vec<u32> = reference.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // every permutation of offers agrees
        let mut order = [0usize, 1, 2, 3, 4];
        for rot in 0..5 {
            order.rotate_left(1);
            let mut t = TopK::new(3);
            for &i in &order {
                t.offer(pool[i]);
            }
            assert_eq!(t.into_sorted(), reference, "rotation {rot}");
        }
        // two-level merge: partition, collect per partition, re-offer
        for split in 1..pool.len() {
            let (a, b) = pool.split_at(split);
            let mut merged = TopK::new(3);
            for part in [a, b] {
                let mut local = TopK::new(3);
                for &x in part {
                    local.offer(x);
                }
                for x in local.into_sorted() {
                    merged.offer(x);
                }
            }
            assert_eq!(merged.into_sorted(), reference, "split {split}");
        }
    }
}
