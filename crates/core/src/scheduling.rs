//! Query-source scheduling strategies.
//!
//! The expansion search drives one expansion per *query source* (each
//! intended place, plus each preferred timestamp when the temporal channel
//! is on). Which source to advance next is the paper's key performance
//! lever: its heuristic gives each source a priority label
//!
//! ```text
//! label(q) = Σ_{τ ∈ P_ps \ q.s} Sim(query, τ).ub
//! ```
//!
//! — the summed upper bounds of the partly-scanned trajectories the source
//! has *not* yet scanned — and always advances the top-labelled source. The
//! intuition (stated in the paper family): convert partly-scanned
//! trajectories to fully-scanned as early as possible, prioritising those
//! that look most promising.
//!
//! [`Scheduler::RoundRobin`] and [`Scheduler::MinRadius`] are the ablation
//! strategies ("w/o-h" in the evaluation).

/// Strategy for picking the next query source to advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Cycle through the live sources in order. The classic IKNN-style
    /// round-robin; the "w/o heuristic" ablation.
    RoundRobin,
    /// Advance the source with the smallest normalized radius, keeping all
    /// expansion frontiers balanced.
    MinRadius,
    /// The paper's priority-label heuristic. Labels are recomputed every
    /// `recompute_every` expansion steps (a label sweep costs
    /// `O(|partly scanned| · #sources)`, so it is amortized over a batch of
    /// steps); between sweeps the current top source keeps running, which
    /// matches the paper's "search the top-ranked query source until a new
    /// query source takes its place".
    Heuristic {
        /// Steps between label sweeps; the engine reads 0 as 1.
        recompute_every: usize,
    },
}

impl Scheduler {
    /// The paper's configuration with a sensible sweep period.
    pub fn heuristic() -> Self {
        Scheduler::Heuristic {
            recompute_every: 128,
        }
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::heuristic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_default() {
        assert!(matches!(
            Scheduler::default(),
            Scheduler::Heuristic {
                recompute_every: 128
            }
        ));
    }

    /// A zero sweep period must still terminate a real search.
    #[test]
    fn zero_period_scheduler_still_terminates_searches() {
        use crate::algorithms::{Algorithm, Expansion};
        use crate::{Database, UotsQuery};
        use uots_network::generators::{grid_city, GridCityConfig};
        use uots_network::NodeId;
        use uots_text::KeywordSet;
        use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let mut store = TrajectoryStore::new();
        for v in [0u32, 7, 13] {
            store.push(
                Trajectory::new(
                    vec![Sample {
                        node: NodeId(v),
                        time: 0.0,
                    }],
                    KeywordSet::empty(),
                )
                .unwrap(),
            );
        }
        let vidx = store.build_vertex_index(net.num_nodes());
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(24)], KeywordSet::empty()).unwrap();
        let hostile = Scheduler::Heuristic { recompute_every: 0 };
        let r = Expansion::new(hostile)
            .run(&db, &q)
            .expect("must terminate");
        let sane = Expansion::default().run(&db, &q).unwrap();
        assert_eq!(r.ids(), sane.ids());
    }
}
