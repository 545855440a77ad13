//! The paper's algorithm: concurrent expansion search with per-trajectory
//! bounds and heuristic scheduling.

use crate::algorithms::Algorithm;
use crate::budget::RunControl;
use crate::engine::expansion_search;
use crate::scheduling::Scheduler;
use crate::{CoreError, QueryResult, UotsQuery, View};
use uots_obs::Recorder;

/// The UOTS expansion search (see the crate-private `engine` module for the machinery).
///
/// `Expansion::default()` uses the paper's heuristic scheduler; construct
/// with [`Scheduler::RoundRobin`] or [`Scheduler::MinRadius`] for the
/// "without heuristic" ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expansion {
    scheduler: Scheduler,
}

impl Expansion {
    /// An expansion search under the given scheduler.
    pub fn new(scheduler: Scheduler) -> Self {
        Expansion { scheduler }
    }
}

impl Algorithm for Expansion {
    fn run_ctx(
        &self,
        view: &View<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
    ) -> Result<QueryResult, CoreError> {
        expansion_search(view, query, self.scheduler, ctl, rec)
    }

    fn name(&self) -> &'static str {
        match self.scheduler {
            Scheduler::Heuristic { .. } => "expansion",
            Scheduler::RoundRobin => "expansion-w/o-h(rr)",
            Scheduler::MinRadius => "expansion-w/o-h(mr)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_reflect_the_scheduler() {
        assert_eq!(Expansion::default().name(), "expansion");
        assert_eq!(
            Expansion::new(Scheduler::RoundRobin).name(),
            "expansion-w/o-h(rr)"
        );
        assert_eq!(
            Expansion::new(Scheduler::MinRadius).name(),
            "expansion-w/o-h(mr)"
        );
        assert_eq!(Expansion::default().scheduler, Scheduler::heuristic());
    }
}
