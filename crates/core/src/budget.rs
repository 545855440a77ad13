//! Anytime execution: budgets, deadlines, cooperative cancellation, and
//! the completeness certificate attached to every answer.
//!
//! Every algorithm in this crate accepts an [`ExecutionBudget`] (carried in
//! [`crate::QueryOptions`]) and a [`RunControl`] (an out-of-band
//! [`CancellationToken`] plus an optional hard deadline, typically set per
//! batch). Exhausting either is **not an error**: the algorithm stops
//! expanding, keeps everything it has proven so far, and returns its current
//! top-k tagged [`Completeness::BestEffort`] with a *certified* `bound_gap`
//! — an upper bound on how much similarity any unreported trajectory could
//! have above the returned `k`-th best. A gap of `0` collapses back to
//! [`Completeness::Exact`], so callers can branch on one enum.
//!
//! The machinery is deliberately cheap: cancellation is one relaxed atomic
//! load, deadlines call [`Instant::now`] only every `CHECK_INTERVAL`
//! expansion steps, and counter limits are plain integer compares.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many expansion steps pass between clock/token polls inside the hot
/// loops. Counter limits (`max_visited`, `max_settled`) are checked on
/// every step regardless — they are just integer compares.
pub(crate) const CHECK_INTERVAL: usize = 64;

/// A cheap, shareable cancellation flag.
///
/// Cloning shares the flag; any clone may [`cancel`](Self::cancel) and all
/// observers see it. Algorithms poll it cooperatively, so cancellation
/// latency is bounded by a few expansion steps, not instantaneous.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource limits for one query (or one join). `None` means unlimited;
/// the default is unlimited on every axis, so existing call sites keep
/// exact semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecutionBudget {
    /// Wall-clock limit, measured from the start of the run.
    pub max_wall: Option<Duration>,
    /// Maximum trajectories touched (candidate generation work).
    pub max_visited: Option<usize>,
    /// Maximum settled vertices + scanned timestamps (expansion work).
    pub max_settled: Option<usize>,
}

impl ExecutionBudget {
    /// The do-nothing budget: no limits on any axis.
    pub const UNLIMITED: ExecutionBudget = ExecutionBudget {
        max_wall: None,
        max_visited: None,
        max_settled: None,
    };

    /// Builder: wall-clock limit in milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.max_wall = Some(Duration::from_millis(ms));
        self
    }

    /// Builder: cap on visited trajectories.
    #[must_use]
    pub fn with_max_visited(mut self, n: usize) -> Self {
        self.max_visited = Some(n);
        self
    }

    /// Builder: cap on settled vertices + scanned timestamps.
    #[must_use]
    pub fn with_max_settled(mut self, n: usize) -> Self {
        self.max_settled = Some(n);
        self
    }
}

/// The completeness certificate attached to every [`crate::QueryResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Completeness {
    /// The answer is provably identical to the unbudgeted answer.
    #[default]
    Exact,
    /// The run was interrupted (budget, deadline, or cancellation) before
    /// the termination proof closed.
    BestEffort {
        /// Certified slack: no unreported trajectory's similarity exceeds
        /// `returned kth-best + bound_gap`. Always in `[0, 1]`; `1.0`
        /// means "nothing is certified" (e.g. cancelled before any work).
        bound_gap: f64,
    },
}

impl Completeness {
    /// Whether the answer is certified exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }

    /// The certified gap: `0` for exact answers.
    pub fn bound_gap(&self) -> f64 {
        match *self {
            Completeness::Exact => 0.0,
            Completeness::BestEffort { bound_gap } => bound_gap,
        }
    }
}

/// Out-of-band control for one run: a cancellation token plus an optional
/// absolute deadline (e.g. the enclosing batch's). Combined with the
/// query-carried [`ExecutionBudget`] inside the run's gate; the effective
/// deadline is the earlier of the two.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    token: CancellationToken,
    deadline: Option<Instant>,
}

impl RunControl {
    /// No token holder, no deadline: runs to completion.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Control observing `token`.
    pub fn with_token(token: CancellationToken) -> Self {
        RunControl {
            token,
            deadline: None,
        }
    }

    /// Builder: adds an absolute deadline (kept if earlier than any
    /// already present).
    #[must_use]
    pub(crate) fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// The observed token.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the token was cancelled (does not consult the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Whether the deadline (if any) has already passed.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The per-run interruption checker threaded through every hot loop.
///
/// Sticky: once tripped it stays tripped, so loops can keep calling
/// [`should_stop`](Self::should_stop) without re-deriving the decision.
#[derive(Debug)]
pub(crate) struct Gate {
    token: CancellationToken,
    deadline: Option<Instant>,
    max_visited: usize,
    max_settled: usize,
    steps: usize,
    tripped: bool,
    /// Fast path: no token observers, no deadline, no counter limits.
    trivial: bool,
}

impl Gate {
    /// Builds the gate from the query's budget and the run's control. The
    /// wall-clock budget starts counting now.
    pub(crate) fn new(budget: &ExecutionBudget, ctl: &RunControl) -> Self {
        let budget_deadline = budget.max_wall.map(|w| Instant::now() + w);
        let deadline = match (ctl.deadline, budget_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let trivial =
            deadline.is_none() && budget.max_visited.is_none() && budget.max_settled.is_none();
        Gate {
            token: ctl.token.clone(),
            deadline,
            max_visited: budget.max_visited.unwrap_or(usize::MAX),
            max_settled: budget.max_settled.unwrap_or(usize::MAX),
            steps: 0,
            tripped: ctl.token.is_cancelled(),
            trivial,
        }
    }

    /// The cheap per-step check. `visited`/`settled` are the run's current
    /// effort counters; counter limits compare on every call, the token
    /// and clock are polled every [`CHECK_INTERVAL`] calls.
    #[inline]
    pub(crate) fn should_stop(&mut self, visited: usize, settled: usize) -> bool {
        if self.tripped {
            return true;
        }
        if !self.trivial && (visited >= self.max_visited || settled >= self.max_settled) {
            self.tripped = true;
            return true;
        }
        self.steps += 1;
        if self.steps.is_multiple_of(CHECK_INTERVAL) && self.poll() {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Forced token + clock poll, bypassing the step counter: the
    /// fault-injection wrappers' stall loop.
    #[cfg(test)]
    pub(crate) fn interrupted_now(&mut self) -> bool {
        if self.tripped {
            return true;
        }
        if self.poll() {
            self.tripped = true;
        }
        self.tripped
    }

    fn poll(&self) -> bool {
        self.token.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancellation_is_shared_across_clones() {
        let t = CancellationToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn default_budget_is_unlimited_and_gate_stays_open() {
        let b = ExecutionBudget::default();
        assert_eq!(b, ExecutionBudget::UNLIMITED);
        let mut g = Gate::new(&b, &RunControl::unbounded());
        for step in 0..10_000 {
            assert!(!g.should_stop(step, step));
        }
        assert!(!g.tripped);
    }

    #[test]
    fn counter_limits_trip_immediately_and_stick() {
        let b = ExecutionBudget::default().with_max_settled(10);
        let mut g = Gate::new(&b, &RunControl::unbounded());
        assert!(!g.should_stop(0, 9));
        assert!(g.should_stop(0, 10));
        assert!(g.should_stop(0, 0), "gate must be sticky once tripped");
        let b = ExecutionBudget::default().with_max_visited(5);
        let mut g = Gate::new(&b, &RunControl::unbounded());
        assert!(!g.should_stop(4, 0));
        assert!(g.should_stop(5, 0));
    }

    #[test]
    fn cancellation_is_seen_within_a_check_interval() {
        let t = CancellationToken::new();
        let mut g = Gate::new(
            &ExecutionBudget::default(),
            &RunControl::with_token(t.clone()),
        );
        assert!(!g.should_stop(0, 0));
        t.cancel();
        let mut stopped = false;
        for _ in 0..=CHECK_INTERVAL {
            if g.should_stop(0, 0) {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
        assert!(g.interrupted_now());
    }

    #[test]
    fn pre_cancelled_token_trips_the_gate_at_construction() {
        let t = CancellationToken::new();
        t.cancel();
        let mut g = Gate::new(&ExecutionBudget::default(), &RunControl::with_token(t));
        assert!(g.should_stop(0, 0));
    }

    #[test]
    fn expired_deadline_trips_on_forced_poll() {
        let ctl = RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(ctl.deadline_passed());
        let mut g = Gate::new(&ExecutionBudget::default(), &ctl);
        assert!(g.interrupted_now());
    }

    #[test]
    fn budget_wall_and_control_deadline_take_the_earlier() {
        // budget wall of 0 ms beats a far-future control deadline
        let ctl = RunControl::unbounded().with_deadline(Instant::now() + Duration::from_secs(3600));
        let b = ExecutionBudget::default().with_deadline_ms(0);
        let mut g = Gate::new(&b, &ctl);
        assert!(g.interrupted_now());
    }

    #[test]
    fn budget_builders_compose() {
        let b = ExecutionBudget::default()
            .with_deadline_ms(100)
            .with_max_visited(7)
            .with_max_settled(9);
        assert_eq!(b.max_wall, Some(Duration::from_millis(100)));
        assert_eq!(b.max_visited, Some(7));
        assert_eq!(b.max_settled, Some(9));
        assert_ne!(b, ExecutionBudget::UNLIMITED);
    }
}
