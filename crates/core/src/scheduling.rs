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

use serde::{Deserialize, Serialize};

/// Strategy for picking the next query source to advance.
///
/// Deserialization clamps `Heuristic::recompute_every` to ≥ 1 (see
/// `Scheduler::normalized`): a zero sweep period would mean "recompute
/// labels after every −1 steps" and stall the label sweep arithmetic, so a
/// hostile or hand-edited config cannot smuggle one in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
        /// Steps between label sweeps (≥ 1).
        recompute_every: usize,
    },
}

/// Untrusted mirror of [`Scheduler`] that serde deserializes into; the
/// `From` conversion is where the ≥ 1 clamp happens.
#[derive(Deserialize)]
enum SchedulerWire {
    RoundRobin,
    MinRadius,
    Heuristic { recompute_every: usize },
}

impl From<SchedulerWire> for Scheduler {
    fn from(w: SchedulerWire) -> Self {
        match w {
            SchedulerWire::RoundRobin => Scheduler::RoundRobin,
            SchedulerWire::MinRadius => Scheduler::MinRadius,
            SchedulerWire::Heuristic { recompute_every } => {
                Scheduler::heuristic_every(recompute_every)
            }
        }
    }
}

// Hand-written (instead of `#[serde(from = "SchedulerWire")]`) so the
// validating `From` conversion provably runs on every deserialization
// path.
impl serde::Deserialize for Scheduler {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        SchedulerWire::deserialize(content).map(Scheduler::from)
    }
}

impl Scheduler {
    /// The paper's configuration with a sensible sweep period.
    pub fn heuristic() -> Self {
        Scheduler::Heuristic {
            recompute_every: 128,
        }
    }

    /// The heuristic with an explicit sweep period, clamped to ≥ 1. Prefer
    /// this over building the variant directly — the field stays public
    /// for pattern matching, but a zero period is never meaningful.
    pub(crate) fn heuristic_every(recompute_every: usize) -> Self {
        Scheduler::Heuristic {
            recompute_every: recompute_every.max(1),
        }
    }

    /// A copy with every invariant enforced (`recompute_every ≥ 1`).
    /// The engine normalizes schedulers on entry, so even a directly
    /// constructed `Heuristic { recompute_every: 0 }` cannot stall a
    /// label sweep.
    pub(crate) fn normalized(self) -> Self {
        match self {
            Scheduler::Heuristic { recompute_every } => Scheduler::heuristic_every(recompute_every),
            other => other,
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

    #[test]
    fn serde_round_trip() {
        for s in [
            Scheduler::RoundRobin,
            Scheduler::MinRadius,
            Scheduler::heuristic(),
        ] {
            let json = serde_json::to_string(&s).unwrap();
            let back: Scheduler = serde_json::from_str(&json).unwrap();
            assert_eq!(s, back);
        }
    }

    /// Regression: a hostile JSON config carrying `recompute_every: 0`
    /// must not reach the engine's sweep arithmetic un-clamped.
    #[test]
    fn hostile_zero_period_is_clamped_everywhere() {
        let hostile: Scheduler = serde_json::from_str(r#"{"Heuristic":{"recompute_every":0}}"#)
            .expect("shape is valid, value is hostile");
        assert_eq!(
            hostile,
            Scheduler::Heuristic { recompute_every: 1 },
            "deserialization must clamp the sweep period"
        );
        assert_eq!(
            Scheduler::heuristic_every(0),
            Scheduler::Heuristic { recompute_every: 1 }
        );
        // a directly constructed zero still normalizes away
        let direct = Scheduler::Heuristic { recompute_every: 0 };
        assert_eq!(
            direct.normalized(),
            Scheduler::Heuristic { recompute_every: 1 }
        );
        // sane values pass through untouched
        assert_eq!(
            Scheduler::heuristic_every(7),
            Scheduler::Heuristic { recompute_every: 7 }
        );
        assert_eq!(Scheduler::RoundRobin.normalized(), Scheduler::RoundRobin);
    }

    /// A zero-period scheduler smuggled past the constructors must still
    /// terminate a real search (the engine normalizes on entry).
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
