//! The expansion search engine — the paper's two-phase trajectory search,
//! specialized to the UOTS (top-k) setting.
//!
//! For one query the engine drives a set of *query sources*: one incremental
//! network expansion per intended place ([`uots_network::expansion`]) and,
//! when the temporal channel is active, one timestamp expansion per
//! preferred time ([`uots_index::TimeExpansion`]). Sources advance one
//! settle/scan step at a time under a pluggable [`Scheduler`].
//!
//! ## Scan states and bounds
//!
//! Every trajectory touched by any source gets a scan state holding, per
//! source, the *exact* distance once scanned (Dijkstra settles nearest
//! first, so the first sighting realizes `d(o_i, τ)`) and otherwise the
//! source's current radius as a lower bound. From these the engine derives
//! a per-trajectory **similarity upper bound**; the textual channel is
//! evaluated exactly on first sight (it is set algebra, cheap), which only
//! tightens the paper's bound.
//!
//! A trajectory scanned by *all* live sources is **fully scanned**: its
//! exact similarity is known and offered to the top-k collector. A source
//! that exhausts its component makes the remaining distances exactly `∞`
//! (contribution `e^(−∞) = 0`), so exhaustion *finalizes* rather than
//! blocks.
//!
//! ## Termination
//!
//! The search stops when the k-th best exact similarity is at least
//!
//! * the **unscanned bound** — the best similarity any never-touched
//!   trajectory could achieve (all radii as distance lower bounds, textual
//!   ≤ 1), and
//! * every partly-scanned trajectory's upper bound, tracked in a lazy
//!   max-heap (bounds only decrease as radii grow, so stale heap entries
//!   are conservative and are refreshed or discarded on pop).
//!
//! Both conditions together guarantee the returned top-k equals the
//! exhaustive answer — property-tested against the brute-force oracle.
//!
//! ## Retirement
//!
//! The same per-trajectory bound also prunes *locally*: whenever a
//! partly-scanned trajectory is re-bounded and `ub < kth` holds
//! **strictly**, it is retired on the spot ([`Engine::retire`]) — no
//! bound-heap entry, no further per-source bookkeeping, no exact
//! evaluation. Sound because `sim ≤ ub < kth` and `kth` only rises, so a
//! retired trajectory could never have entered the collector; a bound
//! that merely *ties* `kth` stays live (it may still win the slot on the
//! ascending-id tie-break). The sweeps walk a compact list of live slots,
//! so the loop pays only for state that can still matter.
//!
//! ## Running as one shard of a scattered query
//!
//! Under a [`SearchContext::scattered`] context `kth` above reads
//! `max(kth, floor)` everywhere — retirement, termination, the interrupt
//! gap — where the floor is the k-th score the cluster's other shards
//! already hold: the run stops as soon as nothing local can still beat
//! it, and reports what it found (possibly fewer than `k` matches). Its
//! spatial sources come from the query's [`crate::SettleLogs`], so the
//! shards of one query share one expansion per query location.

use crate::budget::{Completeness, Gate, RunControl};
use crate::distcache::{CachedSource, SearchContext};
use crate::keywords::TextualEval;
use crate::query::UotsQuery;
use crate::result::{Match, QueryResult};
use crate::scheduling::Scheduler;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, Database, SearchMetrics};
use std::collections::BinaryHeap;
use uots_index::TimeExpansion;
use uots_network::landmarks::Landmarks;
use uots_network::TotalF64;
use uots_obs::{Phase, Recorder};
use uots_trajectory::TrajectoryId;

/// Dense struct-of-arrays scan-state table.
///
/// The legacy representation was a `HashMap<TrajectoryId, TrajState>`
/// with two `Vec` allocations per touched trajectory; on the hot path
/// (one posting-list walk per settled vertex, each posting a map probe
/// plus a bound recomputation) the hashing and pointer chasing dominate.
/// Here trajectory ids index a direct `slot` array (one `u32` per store
/// row, `0` = never seen) and all per-trajectory state lives in flat
/// arrays chunked by slot — distances for slot `s` occupy
/// `sdists[s·m .. s·m+m]`. Slots are assigned in first-sighting order,
/// which also gives the exhaustion sweeps a deterministic iteration
/// order (the `HashMap` iterated arbitrarily; exact results never
/// depended on it, and best-effort outputs are now reproducible).
struct ScanTable {
    /// `tid.index()` → slot + 1; `0` means never seen.
    slot: Vec<u32>,
    /// slot → trajectory id, in first-sighting order.
    tids: Vec<TrajectoryId>,
    /// Exact `d(o_i, τ)` once scanned (`NAN` before), chunked by `m`.
    sdists: Vec<f64>,
    /// Exact `min |t_j − t|` once scanned, chunked by `qt`.
    tdists: Vec<f64>,
    /// Spatial sources that have not yet determined their distance.
    s_remaining: Vec<u32>,
    /// Temporal sources that have not yet determined their gap.
    t_remaining: Vec<u32>,
    /// Exact textual similarity (computed on first sight).
    textual: Vec<f64>,
    /// Finalized (exact similarity computed and offered to the collector)
    /// or retired (bound strictly below the pruning threshold).
    done: Vec<bool>,
    /// `done`, one bit per store row. Most postings of a long run land on
    /// finished trajectories; the posting loop drops those on this bit —
    /// one load from a table a thirty-second of `slot`'s size — instead of
    /// on the dependent `slot` → `done` pair.
    dead: Vec<u64>,
    /// Spatial sources per trajectory.
    m: usize,
    /// Temporal sources per trajectory.
    qt: usize,
}

impl ScanTable {
    fn new(store_len: usize, m: usize, qt: usize) -> Self {
        ScanTable {
            slot: vec![0; store_len],
            tids: Vec::new(),
            sdists: Vec::new(),
            tdists: Vec::new(),
            s_remaining: Vec::new(),
            t_remaining: Vec::new(),
            textual: Vec::new(),
            done: Vec::new(),
            dead: vec![0; store_len.div_ceil(64)],
            m,
            qt,
        }
    }

    /// Marks `slot` finalized or retired, in both `done` and `dead`.
    #[inline]
    fn mark_done(&mut self, slot: usize) {
        self.done[slot] = true;
        let row = self.tids[slot].index();
        self.dead[row / 64] |= 1 << (row % 64);
    }

    /// `true` when `tid` has a slot and it is done.
    #[inline]
    fn is_dead(&self, tid: TrajectoryId) -> bool {
        let row = tid.index();
        self.dead[row / 64] >> (row % 64) & 1 != 0
    }

    #[inline]
    fn slot_of(&self, tid: TrajectoryId) -> Option<usize> {
        match self.slot[tid.index()] {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    #[inline]
    fn contains(&self, tid: TrajectoryId) -> bool {
        self.slot[tid.index()] != 0
    }

    #[inline]
    fn sdists(&self, slot: usize) -> &[f64] {
        &self.sdists[slot * self.m..slot * self.m + self.m]
    }

    #[inline]
    fn tdists(&self, slot: usize) -> &[f64] {
        &self.tdists[slot * self.qt..slot * self.qt + self.qt]
    }

    #[inline]
    fn fully_scanned(&self, slot: usize) -> bool {
        self.s_remaining[slot] == 0 && self.t_remaining[slot] == 0
    }
}

/// Lazy max-heap entry over partly-scanned upper bounds.
#[derive(PartialEq)]
struct BoundEntry {
    ub: TotalF64,
    tid: TrajectoryId,
}

impl Eq for BoundEntry {}

impl PartialOrd for BoundEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BoundEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ub
            .cmp(&other.ub)
            .then_with(|| other.tid.cmp(&self.tid))
    }
}

/// What the search collects: the best `k` matches, or every match reaching
/// a fixed similarity threshold.
enum Collector {
    /// `floor` is the scattered run's similarity floor
    /// ([`SearchContext::floor`]; `-∞` outside a cluster scatter): `k`
    /// trajectories this run never sees already score that much.
    TopK {
        top: TopK,
        floor: f64,
    },
    Threshold {
        theta: f64,
        matches: Vec<Match>,
    },
}

impl Collector {
    fn offer(&mut self, m: Match) {
        match self {
            Collector::TopK { top, .. } => {
                top.offer(m);
            }
            Collector::Threshold { theta, matches } => {
                if m.similarity >= *theta {
                    matches.push(m);
                }
            }
        }
    }

    /// The similarity every still-unseen trajectory must beat to matter:
    /// the k-th best so far or the floor, whichever is higher (top-k mode;
    /// `-∞` until `k` found and without a floor), or the fixed threshold.
    /// The floor never exceeds the final k-th of the merged answer, so
    /// the strict `ub < threshold` tests stay exact under it.
    fn pruning_threshold(&self) -> f64 {
        match self {
            Collector::TopK { top, floor } => top.threshold().max(*floor),
            Collector::Threshold { theta, .. } => *theta,
        }
    }

    fn into_sorted(self) -> Vec<Match> {
        match self {
            Collector::TopK { top, .. } => top.into_sorted(),
            Collector::Threshold { mut matches, .. } => {
                matches.sort_by(Match::ranking_cmp);
                matches
            }
        }
    }

    /// Whether a zero interrupt gap proves exactness: it does once the
    /// pruning threshold is real (top-k full, a finite floor, or any fixed
    /// θ). With an unfilled top-k and no floor even a zero-bound unseen
    /// trajectory still belongs in the answer, so the interrupted result
    /// must stay best-effort.
    fn zero_gap_is_exact(&self) -> bool {
        self.pruning_threshold() != f64::NEG_INFINITY
    }
}

/// Runs the expansion search for `query` over `db` under `scheduler` —
/// the engine shared by [`crate::algorithms::Expansion`] (heuristic
/// scheduling — the paper's algorithm) and its ablations (round-robin /
/// min-radius scheduling).
///
/// `ctl` is the run's cancellation token and/or external deadline,
/// combined with the query's own [`crate::ExecutionBudget`]. Interruption
/// is not an error — the current top-k comes back tagged
/// [`Completeness::BestEffort`] with a certified bound gap; a run
/// cancelled before its first step returns the empty best-effort answer
/// (`bound_gap = 1.0`).
///
/// Phase time is attributed to `rec` (use one recorder per query; the
/// accumulated breakdown is published into the result's
/// `metrics.phases`). With [`Recorder::disabled`] each phase mark costs
/// one branch.
///
/// `ctx` carries an optional shared cross-query [`crate::DistanceCache`]
/// (per-source expansion prefixes are replayed on a hit and published back
/// on clean completion) and optional ALT landmarks used as an admission
/// filter. The cached and uncached paths return identical results (see
/// `tests/differential.rs`); only the work differs.
///
/// # Errors
///
/// Propagates [`Database::validate`] failures.
pub fn expansion_search_ctx(
    db: &Database<'_>,
    query: &UotsQuery,
    scheduler: Scheduler,
    ctl: &RunControl,
    rec: &mut Recorder,
    ctx: &SearchContext,
) -> Result<QueryResult, CoreError> {
    db.validate(query)?;
    if ctl.is_cancelled() || ctl.deadline_passed() {
        return Ok(QueryResult::interrupted_empty());
    }
    let start = std::time::Instant::now();
    let mut gate = Gate::new(&query.options().budget, ctl);
    let collector = Collector::TopK {
        top: TopK::new(query.options().k),
        floor: ctx.floor(),
    };
    let mut engine = Engine::new(db, query, scheduler, collector, rec, ctx);
    let interrupt = engine.run(&mut gate);
    engine.settle_cache(interrupt.is_none());
    let mut result = engine.into_result(interrupt);
    rec.leave();
    result.metrics.phases = rec.phases_snapshot();
    result.metrics.runtime = start.elapsed();
    Ok(result)
}

/// Threshold (range) variant of the expansion search: returns **every**
/// trajectory whose similarity reaches `theta ∈ (0, 1]`, ranked best first.
/// The query's `k` is ignored. This is the UOTS-side analogue of the join's
/// per-probe search and useful on its own (alerting, candidate
/// materialization).
///
/// `ctl`, `rec` and `ctx` are as for [`expansion_search_ctx`]. An
/// interrupted threshold search returns the qualifying matches found so
/// far; its `bound_gap` certifies how far above `θ` a missed trajectory
/// could score.
///
/// # Errors
///
/// Propagates [`Database::validate`] failures and rejects `theta` outside
/// `(0, 1]`.
pub fn threshold_search_ctx(
    db: &Database<'_>,
    query: &UotsQuery,
    theta: f64,
    scheduler: Scheduler,
    ctl: &RunControl,
    rec: &mut Recorder,
    ctx: &SearchContext,
) -> Result<QueryResult, CoreError> {
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(CoreError::BadParameter(format!(
            "theta must be in (0, 1], got {theta}"
        )));
    }
    db.validate(query)?;
    if ctl.is_cancelled() || ctl.deadline_passed() {
        return Ok(QueryResult::interrupted_empty());
    }
    let start = std::time::Instant::now();
    let mut gate = Gate::new(&query.options().budget, ctl);
    let collector = Collector::Threshold {
        theta,
        matches: Vec::new(),
    };
    let mut engine = Engine::new(db, query, scheduler, collector, rec, ctx);
    let interrupt = engine.run(&mut gate);
    engine.settle_cache(interrupt.is_none());
    let mut result = engine.into_result(interrupt);
    rec.leave();
    result.metrics.phases = rec.phases_snapshot();
    result.metrics.runtime = start.elapsed();
    Ok(result)
}

// Test-only switches compiling retirement, or the posting loop's `dead`
// test, out of the current thread's runs, so a test can compare against
// the engine without it.
#[cfg(test)]
thread_local! {
    static RETIREMENT_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static DEAD_SKIP_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct Engine<'a, 'q, 'r> {
    db: &'a Database<'a>,
    query: &'q UotsQuery,
    scheduler: Scheduler,
    spatial: Vec<CachedSource<'a>>,
    /// Cross-query context: shared distance cache + landmark admission.
    ctx: &'q SearchContext,
    temporal: Vec<TimeExpansion<'a, TrajectoryId>>,
    states: ScanTable,
    /// Slots touched and not yet seen done, in first-sighting order. A slot
    /// finalized or retired at a settle site stays listed until the next
    /// sweep walks past it; the sweeps compact in place, keeping the order
    /// (and so the label sums and the offer order) deterministic.
    live: Vec<u32>,
    /// Pending Dijkstra heap entries summed over the spatial sources, kept
    /// current by [`Engine::step`] for the peak-frontier metric.
    frontier: usize,
    /// Cached per-source unsettled lower bounds (`s_lb`/`t_lb`) and their
    /// decay exponentials. A radius moves only inside [`Engine::step`], so
    /// refreshing the touched source there (and all of them once at
    /// construction) keeps every bound computation exact while `ub_of` —
    /// run once per posting on the hot path — avoids recomputing `exp`
    /// for its unscanned entries. The cached exponential is bit-identical
    /// to recomputing it at use: same input bits, same deterministic
    /// `exp`.
    s_lb: Vec<f64>,
    s_lb_exp: Vec<f64>,
    t_lb: Vec<f64>,
    t_lb_exp: Vec<f64>,
    /// Textual scorer: dense bitset/galloping path when the database has
    /// a layout attached, legacy merge walk otherwise (bit-identical).
    textual_eval: TextualEval<'a>,
    collector: Collector,
    bound_heap: BinaryHeap<BoundEntry>,
    metrics: SearchMetrics,
    /// Scheduling state.
    current_source: usize,
    rr_cursor: usize,
    steps_since_sweep: usize,
    labels: Vec<f64>,
    /// Set when the loop ended by exhaustion rather than by the bound test;
    /// triggers the unvisited sweep (disconnected networks, k > |P|).
    exhausted_end: bool,
    /// Per-source flag: the exhaustion transition has been processed (the
    /// pending distances of every touched trajectory set to `∞`). Indexed
    /// like the scheduler (spatial sources, then temporal).
    source_swept: Vec<bool>,
    /// Trajectories sharing ≥ 1 query keyword, ranked by exact textual
    /// similarity (descending). The textual upper bound for *unseen*
    /// trajectories is the similarity of the best-ranked entry not yet
    /// touched by any expansion: every other unseen trajectory shares no
    /// keyword and scores 0. As the search visits the strong textual
    /// matches, the bound decays — this is what lets the textual domain
    /// prune (the paper prunes in both of its domains).
    text_rank: Vec<(f64, TrajectoryId)>,
    /// Cursor into `text_rank`: entries before it are already visited.
    text_ptr: usize,
    /// `true` when `text_rank` is usable; otherwise the trivial bound 1
    /// applies (no keyword index, or an empty query keyword set whose
    /// perfect matches — untagged trajectories — the index cannot list).
    text_rank_usable: bool,
    /// Phase-time sink. One branch per mark when disabled.
    rec: &'r mut Recorder,
}

impl<'a, 'q, 'r> Engine<'a, 'q, 'r> {
    fn new(
        db: &'a Database<'a>,
        query: &'q UotsQuery,
        scheduler: Scheduler,
        collector: Collector,
        rec: &'r mut Recorder,
        ctx: &'q SearchContext,
    ) -> Self {
        let spatial: Vec<CachedSource<'a>> = query
            .locations()
            .iter()
            .enumerate()
            .map(|(i, &v)| CachedSource::for_location(db.network, ctx, i, v))
            .collect();
        let temporal: Vec<TimeExpansion<'a, TrajectoryId>> =
            if query.options().weights.uses_temporal() {
                let idx = db
                    .timestamp_index
                    .expect("validated: temporal channel has its index");
                query.times().iter().map(|&t| idx.expand_from(t)).collect()
            } else {
                Vec::new()
            };
        let num_sources = spatial.len() + temporal.len();
        let textual_eval = TextualEval::new(
            query.options().text_measure,
            query.keywords(),
            db.layout.map(|l| &l.keywords),
        );
        rec.enter(Phase::TextFilter);
        let (text_rank, text_rank_usable) = match (query.keywords().is_empty(), db.keyword_index) {
            (false, Some(kidx)) => {
                let mut rank: Vec<(f64, TrajectoryId)> = kidx
                    .union_of(query.keywords().iter())
                    .into_iter()
                    .map(|tid| (textual_eval.eval(tid, db.store.get(tid)), tid))
                    .collect();
                rank.sort_by(|a, b| b.0.total_cmp(&a.0));
                (rank, true)
            }
            _ => (Vec::new(), false),
        };
        rec.leave();
        let (m, qt) = (spatial.len(), temporal.len());
        let mut engine = Engine {
            db,
            query,
            // enforce scheduler invariants (e.g. sweep period ≥ 1) once on
            // entry; serde-built schedulers are already clamped, this
            // catches directly constructed ones
            scheduler: scheduler.normalized(),
            spatial,
            ctx,
            temporal,
            states: ScanTable::new(db.store.len(), m, qt),
            live: Vec::new(),
            frontier: 0,
            // NaN sentinels: the first refresh always writes (a real lower
            // bound is never NaN), filling the exponentials
            s_lb: vec![f64::NAN; m],
            s_lb_exp: vec![f64::NAN; m],
            t_lb: vec![f64::NAN; qt],
            t_lb_exp: vec![f64::NAN; qt],
            textual_eval,
            collector,
            bound_heap: BinaryHeap::new(),
            metrics: SearchMetrics::for_one_query(),
            current_source: 0,
            rr_cursor: 0,
            steps_since_sweep: usize::MAX, // force a sweep on the first pick
            labels: vec![0.0; num_sources],
            exhausted_end: false,
            source_swept: vec![false; num_sources],
            text_rank,
            text_ptr: 0,
            text_rank_usable,
            rec,
        };
        engine.frontier = engine.spatial.iter().map(CachedSource::frontier_len).sum();
        for i in 0..engine.spatial.len() {
            engine.refresh_spatial_lb(i);
        }
        for j in 0..engine.temporal.len() {
            engine.refresh_temporal_lb(j);
        }
        engine
    }

    /// Current upper bound on the textual similarity of any never-touched
    /// trajectory; advances the rank cursor past already-visited entries.
    fn unscanned_text_bound(&mut self) -> f64 {
        if !self.text_rank_usable {
            return 1.0;
        }
        while let Some(&(sim, tid)) = self.text_rank.get(self.text_ptr) {
            if self.states.contains(tid) {
                self.text_ptr += 1;
            } else {
                return sim;
            }
        }
        0.0
    }

    #[inline]
    fn num_spatial(&self) -> usize {
        self.spatial.len()
    }

    #[inline]
    fn num_sources(&self) -> usize {
        self.spatial.len() + self.temporal.len()
    }

    fn source_live(&self, s: usize) -> bool {
        if s < self.num_spatial() {
            !self.spatial[s].is_exhausted()
        } else {
            !self.temporal[s - self.num_spatial()].is_exhausted()
        }
    }

    /// Normalized radius of a source (dimensionless: km radii divided by the
    /// spatial decay, seconds radii by the temporal decay), for cross-domain
    /// comparison by the min-radius scheduler.
    fn normalized_radius(&self, s: usize) -> f64 {
        let o = self.query.options();
        if s < self.num_spatial() {
            self.spatial[s].radius() / o.decay_km
        } else {
            let t = &self.temporal[s - self.num_spatial()];
            if t.is_exhausted() {
                f64::INFINITY
            } else {
                t.radius() / o.decay_s
            }
        }
    }

    /// Refreshes the cached lower bound (and its decay exponential) of
    /// spatial source `i`: the current radius, or `∞` once exhausted.
    /// Must run after every event that can move the radius — see the
    /// field docs on [`Engine::s_lb`].
    #[inline]
    fn refresh_spatial_lb(&mut self, i: usize) {
        let lb = self.spatial[i].unsettled_lower_bound();
        if lb != self.s_lb[i] {
            self.s_lb[i] = lb;
            self.s_lb_exp[i] = (-lb / self.query.options().decay_km).exp();
        }
    }

    #[inline]
    fn refresh_temporal_lb(&mut self, j: usize) {
        let t = &self.temporal[j];
        let lb = if t.is_exhausted() {
            f64::INFINITY
        } else {
            t.radius()
        };
        if lb != self.t_lb[j] {
            self.t_lb[j] = lb;
            self.t_lb_exp[j] = (-lb / self.query.options().decay_s).exp();
        }
    }

    /// Upper bound on the similarity of a partly-scanned trajectory.
    /// Scanned entries compute their exponential fresh; unscanned entries
    /// use the cached per-source value — same accumulation order and same
    /// bits as evaluating every term in place.
    fn ub_of(&self, slot: usize) -> f64 {
        let o = self.query.options();
        let sd = self.states.sdists(slot);
        let mut acc = 0.0;
        for (i, &d) in sd.iter().enumerate() {
            acc += if d.is_nan() {
                self.s_lb_exp[i]
            } else {
                (-d / o.decay_km).exp()
            };
        }
        let spatial_ub = acc / sd.len() as f64;
        let temporal_ub = if self.temporal.is_empty() {
            0.0
        } else {
            let mut acc = 0.0;
            for (j, &dt) in self.states.tdists(slot).iter().enumerate() {
                acc += if dt.is_nan() {
                    self.t_lb_exp[j]
                } else {
                    (-dt / o.decay_s).exp()
                };
            }
            acc / self.temporal.len() as f64
        };
        let w = o.weights;
        w.spatial * spatial_ub + w.textual * self.states.textual[slot] + w.temporal * temporal_ub
    }

    /// Upper bound on the similarity of any never-touched trajectory.
    fn ub_unscanned(&mut self) -> f64 {
        let o = self.query.options();
        let spatial_ub = self.s_lb_exp.iter().sum::<f64>() / self.s_lb_exp.len() as f64;
        let temporal_ub = if self.temporal.is_empty() {
            0.0
        } else {
            self.t_lb_exp.iter().sum::<f64>() / self.t_lb_exp.len() as f64
        };
        let w = o.weights;
        let text_ub = self.unscanned_text_bound();
        w.spatial * spatial_ub + w.textual * text_ub + w.temporal * temporal_ub
    }

    /// Drives the search to termination, exhaustion, or interruption.
    /// Returns `Some(bound_gap)` when `gate` tripped first — the certified
    /// slack of the best-effort answer — and `None` for exact ends.
    fn run(&mut self, gate: &mut Gate) -> Option<f64> {
        // a source can be born exhausted (a cached prefix resumed onto an
        // empty frontier); after this, exhaustion only happens in `step`
        for s in 0..self.num_sources() {
            self.note_exhaustion(s);
        }
        loop {
            // gate check, source scheduling, termination test, and the
            // interrupt-gap certificate are all heap/bookkeeping work;
            // consecutive marks of the same phase coalesce into one span
            self.rec.enter(Phase::HeapMaintenance);
            if gate.should_stop(
                self.metrics.visited_trajectories,
                self.metrics.settled_vertices + self.metrics.scanned_timestamps,
            ) {
                return Some(self.interrupt_gap());
            }
            let Some(src) = self.pick_source() else {
                // all sources exhausted
                self.exhausted_end = true;
                break;
            };
            let replaying = src < self.num_spatial() && self.spatial[src].in_replay();
            self.rec.enter(if replaying {
                Phase::CacheReplay
            } else {
                Phase::NetworkExpansion
            });
            self.step(src);
            self.rec.enter(Phase::HeapMaintenance);
            // A source can exhaust without ever delivering a final `None`
            // settle: the heap may empty on the very pop that finished the
            // component (no stale entries behind it). Only the stepped
            // source can have made that transition, so test it alone — the
            // touched-but-pending trajectories then get their exact `∞`
            // distances and finalize.
            self.note_exhaustion(src);
            if self.terminated() {
                return None;
            }
        }
        if self.exhausted_end {
            return self.sweep_unvisited(gate);
        }
        None
    }

    /// Certified slack at the moment of interruption: how much similarity
    /// any unreported trajectory could have above the pruning threshold.
    ///
    /// Sound because (a) `ub_unscanned` bounds every never-touched
    /// trajectory, (b) the heap's stale top bound over-estimates every
    /// live partly-scanned trajectory (bounds only decrease as radii
    /// grow), and (c) entries popped earlier were already `≤` a k-th best
    /// that only increases.
    fn interrupt_gap(&mut self) -> f64 {
        let base = self.collector.pruning_threshold().max(0.0);
        let mut ub = self.ub_unscanned();
        while let Some(entry) = self.bound_heap.peek() {
            let (tid, stale_ub) = (entry.tid, entry.ub.0);
            match self.states.slot_of(tid) {
                Some(slot) if !self.states.done[slot] => {
                    ub = ub.max(stale_ub);
                    break;
                }
                _ => {
                    self.bound_heap.pop(); // finalized: entry is obsolete
                }
            }
        }
        (ub - base).clamp(0.0, 1.0)
    }

    /// One settle/scan step on source `src`.
    fn step(&mut self, src: usize) {
        if src < self.num_spatial() {
            // a `None` here means exhaustion: note_exhaustion finalizes
            // the pending states, nothing to do at the settle site
            let before = self.spatial[src].frontier_len();
            let settled = self.spatial[src].next_settled();
            self.frontier = self.frontier + self.spatial[src].frontier_len() - before;
            // the settle (or the final `None`) moved this source's radius:
            // refresh its cached bound before any `ub_of` below reads it
            self.refresh_spatial_lb(src);
            if let Some(settled) = settled {
                self.metrics.settled_vertices += 1;
                // the posting slice borrows the 'a-lived index, not
                // `self`, so no copy is needed on this hot path
                let tids: &'a [TrajectoryId] = self.db.vertex_index.values_at(settled.node);
                for &tid in tids {
                    // a no-op inside `record_spatial` too (`done[slot]`),
                    // so skipping here moves no answer and no counter
                    if self.is_dead(tid) {
                        continue;
                    }
                    self.record_spatial(tid, src, settled.dist);
                }
            }
        } else {
            let j = src - self.num_spatial();
            let scanned = self.temporal[j].next_scanned();
            self.refresh_temporal_lb(j);
            if let Some(scanned) = scanned {
                self.metrics.scanned_timestamps += 1;
                self.record_temporal(scanned.value, j, scanned.dt);
            }
        }
        self.metrics.peak_frontier = self.metrics.peak_frontier.max(self.frontier);
    }

    /// Appends a fresh scan-state row for `tid` and returns its slot.
    fn insert_state(&mut self, tid: TrajectoryId) -> usize {
        self.metrics.visited_trajectories += 1;
        let slot = self.states.tids.len();
        self.states.slot[tid.index()] = slot as u32 + 1;
        self.states.tids.push(tid);
        self.live.push(slot as u32);
        let mut s_remaining = 0u32;
        for i in 0..self.states.m {
            if self.spatial[i].is_exhausted() {
                // exact: unreachable from this source
                self.states.sdists.push(f64::INFINITY);
            } else {
                s_remaining += 1;
                self.states.sdists.push(f64::NAN);
            }
        }
        let mut t_remaining = 0u32;
        for j in 0..self.states.qt {
            if self.temporal[j].is_exhausted() {
                self.states.tdists.push(f64::INFINITY);
            } else {
                t_remaining += 1;
                self.states.tdists.push(f64::NAN);
            }
        }
        self.states.s_remaining.push(s_remaining);
        self.states.t_remaining.push(t_remaining);
        let textual = self.textual_eval.eval(tid, self.db.store.get(tid));
        self.states.textual.push(textual);
        self.states.done.push(false);
        slot
    }

    fn record_spatial(&mut self, tid: TrajectoryId, i: usize, dist: f64) {
        let (slot, created) = match self.states.slot_of(tid) {
            Some(slot) => (slot, false),
            None => {
                let slot = self.insert_state(tid);
                if self.try_landmark_prune(slot, tid) {
                    return;
                }
                (slot, true)
            }
        };
        if self.states.done[slot] {
            return;
        }
        let idx = slot * self.states.m + i;
        if self.states.sdists[idx].is_nan() {
            self.states.sdists[idx] = dist;
            self.states.s_remaining[slot] -= 1;
        } else if created && self.states.sdists[idx] == f64::INFINITY {
            // The settle that delivered this sighting is the one that
            // exhausted source `i`, so insert_state already marked the
            // source "unreachable" — overwrite with the exact distance we
            // are holding. (Without this, the distance is lost and, worse,
            // a state born fully-scanned is never finalized.)
            self.states.sdists[idx] = dist;
        } else {
            return; // a farther revisit of the same source
        }
        self.after_update(slot, tid);
    }

    fn record_temporal(&mut self, tid: TrajectoryId, j: usize, dt: f64) {
        let (slot, created) = match self.states.slot_of(tid) {
            Some(slot) => (slot, false),
            None => {
                let slot = self.insert_state(tid);
                if self.try_landmark_prune(slot, tid) {
                    return;
                }
                (slot, true)
            }
        };
        if self.states.done[slot] {
            return;
        }
        let idx = slot * self.states.qt + j;
        if self.states.tdists[idx].is_nan() {
            self.states.tdists[idx] = dt;
            self.states.t_remaining[slot] -= 1;
        } else if created && self.states.tdists[idx] == f64::INFINITY {
            // see record_spatial: same exhaustion-moment correction
            self.states.tdists[idx] = dt;
        } else {
            return;
        }
        self.after_update(slot, tid);
    }

    /// Landmark admission, applied once at a trajectory's first sighting:
    /// when the ALT-tightened similarity upper bound already proves the
    /// trajectory cannot reach the pruning threshold, retire it before it
    /// is ever bounded by radii (see [`Engine::retire`]).
    fn try_landmark_prune(&mut self, slot: usize, tid: TrajectoryId) -> bool {
        let Some(lm) = self.ctx.landmarks() else {
            return false;
        };
        let kth = self.collector.pruning_threshold();
        if kth <= 0.0 {
            return false; // no threshold to prune against yet
        }
        let ub = self.alt_ub_of(slot, tid, lm);
        if ub < kth {
            self.retire(slot);
            if let Some(cache) = self.ctx.cache() {
                cache.note_bound_prune();
            }
            true
        } else {
            false
        }
    }

    /// Like [`ub_of`](Self::ub_of), additionally tightening every unknown
    /// spatial distance with the ALT landmark lower bound on `d(o_i, τ)` —
    /// the minimum of the per-vertex bounds over the trajectory's samples,
    /// since the realized distance is exactly that minimum of exact
    /// distances.
    fn alt_ub_of(&self, slot: usize, tid: TrajectoryId, lm: &Landmarks) -> f64 {
        let o = self.query.options();
        let m = self.num_spatial();
        let traj = self.db.store.get(tid);
        let sd = self.states.sdists(slot);
        let mut acc = 0.0;
        for (i, &sdi) in sd.iter().enumerate() {
            let d = if sdi.is_nan() {
                let mut alt = f64::INFINITY;
                for v in traj.nodes() {
                    alt = alt.min(lm.lower_bound(self.spatial[i].source(), v));
                }
                if !alt.is_finite() {
                    alt = 0.0; // unreachable here: trajectories are non-empty
                }
                self.s_lb[i].max(alt)
            } else {
                sdi
            };
            acc += (-d / o.decay_km).exp();
        }
        let spatial_ub = acc / m as f64;
        let temporal_ub = if self.temporal.is_empty() {
            0.0
        } else {
            let mut acc = 0.0;
            for (j, &dt) in self.states.tdists(slot).iter().enumerate() {
                acc += if dt.is_nan() {
                    self.t_lb_exp[j]
                } else {
                    (-dt / o.decay_s).exp()
                };
            }
            acc / self.temporal.len() as f64
        };
        let w = o.weights;
        w.spatial * spatial_ub + w.textual * self.states.textual[slot] + w.temporal * temporal_ub
    }

    /// Ends every spatial source's run ([`CachedSource::settle`]): the
    /// (possibly extended) prefixes are published to the shared cache on
    /// clean completion and poisoned after an interruption — a
    /// budget-tripped or cancelled run must never publish state a later
    /// query would replay as finalized — or, inside a scattered query,
    /// parked for the next shard run.
    fn settle_cache(&mut self, clean: bool) {
        for s in std::mem::take(&mut self.spatial) {
            s.settle(clean);
        }
    }

    /// Marks a trajectory whose upper bound fell **strictly** below the
    /// pruning threshold as done: no bound-heap entry, no further
    /// per-source bookkeeping, no exact evaluation. Exact under ties: a
    /// retired trajectory satisfies `sim ≤ ub < kth`, and `kth` only
    /// increases — it can never enter the answer, not even via the id
    /// tie-break. A bound that *equals* `kth` must stay live.
    #[inline]
    fn retire(&mut self, slot: usize) {
        self.states.mark_done(slot);
        self.metrics.retired += 1;
    }

    /// [`ScanTable::is_dead`], as the posting loop asks it — `false` when
    /// a test switched the skip off.
    #[inline]
    fn is_dead(&self, tid: TrajectoryId) -> bool {
        #[cfg(test)]
        if DEAD_SKIP_OFF.with(std::cell::Cell::get) {
            return false;
        }
        self.states.is_dead(tid)
    }

    /// Whether `ub` proves a partly-scanned trajectory irrelevant (see
    /// [`Engine::retire`]). With an unfilled top-k the threshold is `-∞`
    /// and nothing retires.
    #[inline]
    fn retirable(&self, ub: f64) -> bool {
        #[cfg(test)]
        if RETIREMENT_OFF.with(std::cell::Cell::get) {
            return false;
        }
        ub < self.collector.pruning_threshold()
    }

    /// Finalizes, retires or re-bounds a trajectory after a scan-state
    /// update.
    fn after_update(&mut self, slot: usize, tid: TrajectoryId) {
        if self.states.fully_scanned(slot) {
            // every call site is inside a network/temporal settle step, so
            // restore that attribution after the refine detour
            self.rec.enter(Phase::CandidateRefine);
            self.finalize(slot, tid);
            self.rec.enter(Phase::NetworkExpansion);
        } else {
            let ub = self.ub_of(slot);
            if self.retirable(ub) {
                self.retire(slot);
                return;
            }
            self.metrics.heap_pushes += 1;
            self.bound_heap.push(BoundEntry {
                ub: TotalF64(ub),
                tid,
            });
        }
    }

    /// Computes the exact similarity of a fully-scanned trajectory and
    /// offers it to the top-k.
    fn finalize(&mut self, slot: usize, tid: TrajectoryId) {
        let o = self.query.options();
        let sdists = self.states.sdists(slot);
        let tdists = self.states.tdists(slot);
        debug_assert!(sdists.iter().all(|d| !d.is_nan()));
        let spatial = similarity::spatial_component(sdists, o.decay_km);
        let temporal = if tdists.is_empty() {
            0.0
        } else {
            similarity::temporal_component(tdists, o.decay_s)
        };
        let textual = self.states.textual[slot];
        self.states.mark_done(slot);
        self.metrics.candidates += 1;
        self.metrics.heap_pushes += 1; // top-k (or threshold) offer
        self.collector.offer(Match {
            id: tid,
            similarity: similarity::combine(self.query, spatial, textual, temporal),
            spatial,
            textual,
            temporal,
            order_blend: None,
        });
    }

    /// Processes source `s`'s exhaustion transition, once: every live
    /// trajectory it never scanned is exactly unreachable from it (`∞`,
    /// contribution 0), which finalizes, retires or re-bounds it.
    fn note_exhaustion(&mut self, s: usize) {
        if self.source_swept[s] || self.source_live(s) {
            return;
        }
        self.source_swept[s] = true;
        let spatial = s < self.num_spatial();
        let (stride, i) = if spatial {
            (self.states.m, s)
        } else {
            (self.states.qt, s - self.num_spatial())
        };
        // live order = first-sighting order: a deterministic walk, so
        // best-effort outputs are reproducible. Nothing below creates
        // states, so the list can be detached for the walk.
        let mut live = std::mem::take(&mut self.live);
        live.retain(|&slot| {
            let slot = slot as usize;
            if self.states.done[slot] {
                return false;
            }
            let idx = slot * stride + i;
            if spatial && self.states.sdists[idx].is_nan() {
                self.states.sdists[idx] = f64::INFINITY;
                self.states.s_remaining[slot] -= 1;
            } else if !spatial && self.states.tdists[idx].is_nan() {
                self.states.tdists[idx] = f64::INFINITY;
                self.states.t_remaining[slot] -= 1;
            } else {
                return true; // already scanned by this source
            }
            self.after_update(slot, self.states.tids[slot]);
            !self.states.done[slot]
        });
        self.live = live;
    }

    /// Degenerate end (disconnected network or k > |P|): evaluate every
    /// never-touched trajectory exactly. All sources are exhausted here, so
    /// spatial distances are exactly `∞`; textual and temporal channels are
    /// evaluated directly.
    fn sweep_unvisited(&mut self, gate: &mut Gate) -> Option<f64> {
        self.rec.enter(Phase::CandidateRefine);
        let o = self.query.options();
        let ids: Vec<TrajectoryId> = self
            .db
            .store
            .ids()
            .filter(|tid| self.db.is_live(*tid) && !self.states.contains(*tid))
            .collect();
        for tid in ids {
            if gate.should_stop(
                self.metrics.visited_trajectories,
                self.metrics.settled_vertices + self.metrics.scanned_timestamps,
            ) {
                // every source is exhausted, so a missed trajectory's
                // spatial contribution is exactly 0; its textual score is
                // bounded by the rank of the best unseen entry and its
                // temporal score trivially by 1
                let base = self.collector.pruning_threshold().max(0.0);
                let w = o.weights;
                let text_ub = self.unscanned_text_bound();
                let tm_ub = if w.uses_temporal() { 1.0 } else { 0.0 };
                return Some((w.textual * text_ub + w.temporal * tm_ub - base).clamp(0.0, 1.0));
            }
            let traj = self.db.store.get(tid);
            self.metrics.visited_trajectories += 1;
            self.metrics.candidates += 1;
            let textual = self.textual_eval.eval(tid, traj);
            let temporal = if self.query.times().is_empty() {
                0.0
            } else {
                similarity::temporal_component(
                    &similarity::temporal_gaps(self.query.times(), traj),
                    o.decay_s,
                )
            };
            self.metrics.heap_pushes += 1;
            self.collector.offer(Match {
                id: tid,
                similarity: similarity::combine(self.query, 0.0, textual, temporal),
                spatial: 0.0,
                textual,
                temporal,
                order_blend: None,
            });
        }
        None
    }

    /// Checks the two-part termination condition, cleaning the bound heap
    /// lazily.
    fn terminated(&mut self) -> bool {
        let kth = self.collector.pruning_threshold();
        if kth == f64::NEG_INFINITY {
            return false;
        }
        // both guards are deliberately *strict*: a trajectory whose bound
        // ties the k-th similarity could still realize exactly `kth` and
        // displace the incumbent on the id tie-break, so only `ub < kth`
        // proves it irrelevant. Termination is still guaranteed — when the
        // bounds never drop strictly below `kth` (exact-tie plateaus) the
        // loop ends by source exhaustion and the unvisited sweep instead.
        if self.ub_unscanned() >= kth {
            return false;
        }
        while let Some(entry) = self.bound_heap.peek() {
            let tid = entry.tid;
            match self.states.slot_of(tid) {
                Some(slot) if !self.states.done[slot] => {
                    let cur = self.ub_of(slot);
                    if cur >= kth {
                        return false;
                    }
                    // permanently prunable: bounds only decrease, kth only
                    // increases (`retirable` holds here unless a test
                    // switched retirement off)
                    if self.retirable(cur) {
                        self.retire(slot);
                    }
                    self.bound_heap.pop();
                }
                _ => {
                    self.bound_heap.pop(); // finalized: entry is obsolete
                }
            }
        }
        true
    }

    /// Picks the next source per the scheduling strategy; `None` when all
    /// sources are exhausted. Every arm is `Option`-native: exhaustion is
    /// detected by the selection itself, never by a separate guard, so a
    /// source going dead between sweeps ends the expansion cleanly instead
    /// of panicking.
    fn pick_source(&mut self) -> Option<usize> {
        let n = self.num_sources();
        let pick = match self.scheduler {
            Scheduler::RoundRobin => {
                // Lazy scan of one full rotation starting at the cursor;
                // safe when n == 0 (empty range) or nothing is live (None).
                let s = (0..n)
                    .map(|off| (self.rr_cursor + off) % n.max(1))
                    .find(|&s| self.source_live(s))?;
                self.rr_cursor = s + 1;
                s
            }
            Scheduler::MinRadius => (0..n).filter(|&s| self.source_live(s)).min_by(|&a, &b| {
                self.normalized_radius(a)
                    .total_cmp(&self.normalized_radius(b))
            })?,
            Scheduler::Heuristic { recompute_every } => {
                if self.steps_since_sweep >= recompute_every.max(1) {
                    self.sweep_labels();
                    self.steps_since_sweep = 0;
                    self.current_source =
                        (0..n).filter(|&s| self.source_live(s)).max_by(|&a, &b| {
                            self.labels[a].total_cmp(&self.labels[b]).then_with(|| {
                                // tie-break: less-advanced source first
                                self.normalized_radius(b)
                                    .total_cmp(&self.normalized_radius(a))
                            })
                        })?;
                } else if !self.source_live(self.current_source) {
                    self.current_source = (0..n).find(|&s| self.source_live(s))?;
                }
                self.steps_since_sweep += 1;
                self.current_source
            }
        };
        Some(pick)
    }

    /// Recomputes the heuristic priority labels:
    /// `label(s) = Σ over partly-scanned τ not scanned by s of ub(τ)`,
    /// retiring every trajectory the fresh bound proves irrelevant.
    fn sweep_labels(&mut self) {
        let m = self.num_spatial();
        let kth = self.collector.pruning_threshold();
        self.labels.fill(0.0);
        let mut live = std::mem::take(&mut self.live);
        live.retain(|&slot| {
            let slot = slot as usize;
            if self.states.done[slot] {
                return false;
            }
            let ub = self.ub_of(slot);
            if self.retirable(ub) {
                self.retire(slot);
                return false;
            }
            if ub <= kth {
                return true; // ties kth: stays live, but converting it has no value
            }
            for (i, d) in self.states.sdists(slot).iter().enumerate() {
                if d.is_nan() {
                    self.labels[i] += ub;
                }
            }
            for (j, d) in self.states.tdists(slot).iter().enumerate() {
                if d.is_nan() {
                    self.labels[m + j] += ub;
                }
            }
            true
        });
        self.live = live;
    }

    /// Consumes the engine; `interrupt` is [`Engine::run`]'s return value.
    /// A gap of zero certifies the answer exact even when the gate tripped
    /// — provided the collector's threshold is real (see
    /// [`Collector::zero_gap_is_exact`]): at that point the normal
    /// termination test would have fired on the same state.
    fn into_result(self, interrupt: Option<f64>) -> QueryResult {
        let completeness = match interrupt {
            Some(gap) if gap <= 0.0 && self.collector.zero_gap_is_exact() => Completeness::Exact,
            Some(gap) => Completeness::BestEffort {
                bound_gap: gap.clamp(0.0, 1.0),
            },
            None => Completeness::Exact,
        };
        let mut metrics = self.metrics;
        if !completeness.is_exact() {
            metrics.interrupted = 1;
        }
        QueryResult {
            matches: self.collector.into_sorted(),
            metrics,
            completeness,
        }
    }
}

#[cfg(test)]
#[path = "engine_retirement_tests.rs"]
mod retirement_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryOptions, Weights};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::{NetworkBuilder, NodeId, Point};
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

    /// [`expansion_search_ctx`] unbounded, unrecorded, under the empty
    /// context.
    pub(super) fn search_plain(
        db: &Database<'_>,
        q: &UotsQuery,
        s: Scheduler,
    ) -> Result<QueryResult, CoreError> {
        let (ctl, ctx) = (RunControl::unbounded(), SearchContext::new());
        expansion_search_ctx(db, q, s, &ctl, &mut Recorder::disabled(), &ctx)
    }

    /// [`threshold_search_ctx`] likewise.
    pub(super) fn threshold_plain(
        db: &Database<'_>,
        q: &UotsQuery,
        theta: f64,
        s: Scheduler,
    ) -> Result<QueryResult, CoreError> {
        let (ctl, ctx) = (RunControl::unbounded(), SearchContext::new());
        threshold_search_ctx(db, q, theta, s, &ctl, &mut Recorder::disabled(), &ctx)
    }

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

    /// 6×6 lattice with three trajectories at different distances from the
    /// query corner.
    fn fixture() -> (uots_network::RoadNetwork, TrajectoryStore) {
        let net = grid_city(&GridCityConfig::tiny(6)).unwrap();
        let mut store = TrajectoryStore::new();
        store.push(traj(&[0, 1, 2], 1_000.0, &[1, 2])); // near v0
        store.push(traj(&[14, 15, 16], 2_000.0, &[2, 3])); // middle
        store.push(traj(&[33, 34, 35], 40_000.0, &[9])); // far corner
        (net, store)
    }

    fn run(
        net: &uots_network::RoadNetwork,
        store: &TrajectoryStore,
        q: &UotsQuery,
        s: Scheduler,
    ) -> QueryResult {
        let vidx = store.build_vertex_index(net.num_nodes());
        let tidx = store.build_timestamp_index();
        let db = Database::new(net, store, &vidx).with_timestamp_index(&tidx);
        search_plain(&db, q, s).unwrap()
    }

    #[test]
    fn finds_the_obvious_best_trajectory() {
        let (net, store) = fixture();
        let q = UotsQuery::new(vec![NodeId(0), NodeId(1)], kws(&[1, 2])).unwrap();
        for s in [
            Scheduler::RoundRobin,
            Scheduler::MinRadius,
            Scheduler::heuristic(),
        ] {
            let r = run(&net, &store, &q, s);
            assert_eq!(r.matches.len(), 1, "{s:?}");
            assert_eq!(r.matches[0].id, TrajectoryId(0), "{s:?}");
            assert!(r.is_ranked());
        }
    }

    #[test]
    fn top_k_larger_than_dataset_returns_everything() {
        let (net, store) = fixture();
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[1]))
            .unwrap()
            .reoptioned(QueryOptions {
                k: 10,
                ..Default::default()
            })
            .unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches.len(), 3);
        assert!(r.is_ranked());
    }

    #[test]
    fn early_termination_prunes_far_trajectories() {
        let (net, store) = fixture();
        // spatial-only query right on trajectory 0: expansion should stop
        // before visiting the far corner trajectory
        let q = UotsQuery::new(vec![NodeId(0), NodeId(2)], kws(&[1, 2])).unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches[0].id, TrajectoryId(0));
        // the search must not have settled the whole network
        assert!(
            r.metrics.settled_vertices < 2 * net.num_nodes(),
            "settled {} vertices",
            r.metrics.settled_vertices
        );
    }

    #[test]
    fn textual_weight_shifts_the_winner() {
        let (net, store) = fixture();
        // trajectory 1 matches the keywords {2,3} perfectly but is farther;
        // with λ small (textual dominates) it must win
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            kws(&[2, 3]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.05).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches[0].id, TrajectoryId(1));

        let q = q
            .reoptioned(QueryOptions {
                weights: Weights::lambda(0.95).unwrap(),
                ..Default::default()
            })
            .unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches[0].id, TrajectoryId(0));
    }

    #[test]
    fn temporal_channel_prefers_synchronous_trajectories() {
        let (net, store) = fixture();
        // all three trajectories are spatially indistinct under a huge decay,
        // but only trajectory 2 travels around 40_000 s
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            KeywordSet::empty(),
            vec![40_060.0],
            QueryOptions {
                weights: Weights::new(0.0, 0.0, 1.0).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches[0].id, TrajectoryId(2));
        assert!(r.matches[0].temporal > 0.9);
    }

    #[test]
    fn all_schedulers_agree_on_results() {
        let (net, store) = fixture();
        let q = UotsQuery::new(vec![NodeId(7), NodeId(22)], kws(&[2]))
            .unwrap()
            .reoptioned(QueryOptions {
                k: 3,
                ..Default::default()
            })
            .unwrap();
        let a = run(&net, &store, &q, Scheduler::RoundRobin);
        let b = run(&net, &store, &q, Scheduler::MinRadius);
        let c = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(a.ids(), b.ids());
        assert_eq!(b.ids(), c.ids());
        for (x, y) in a.matches.iter().zip(c.matches.iter()) {
            assert!((x.similarity - y.similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn disconnected_network_still_answers_exactly() {
        // two components; query in component A, best textual match lives in
        // component B and must be found via the unvisited sweep
        let mut b = NetworkBuilder::new();
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(1.0, 0.0));
        let b0 = b.add_node(Point::new(100.0, 100.0));
        let b1 = b.add_node(Point::new(101.0, 100.0));
        b.add_edge(a0, a1, None).unwrap();
        b.add_edge(b0, b1, None).unwrap();
        let net = b.build().unwrap();
        let mut store = TrajectoryStore::new();
        store.push(traj(&[0, 1], 0.0, &[5])); // component A, wrong tags
        store.push(traj(&[2, 3], 0.0, &[1, 2])); // component B, right tags
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            kws(&[1, 2]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.1).unwrap(),
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.matches.len(), 2);
        // textual dominates: the cross-component trajectory wins
        assert_eq!(r.matches[0].id, TrajectoryId(1));
        assert_eq!(r.matches[0].spatial, 0.0);
        assert!((r.matches[0].textual - 1.0).abs() < 1e-12);
    }

    /// Three isolated components, query sources confined to two tiny ones:
    /// every Dijkstra exhausts its component long before the collector is
    /// satisfied, so each scheduler must survive total source exhaustion
    /// (regression for the `.expect("at least one live source")` panics in
    /// `pick_source`) and still answer exactly via the unvisited sweep.
    fn exhaustion_fixture() -> (uots_network::RoadNetwork, TrajectoryStore) {
        let mut b = NetworkBuilder::new();
        // component A: nodes 0-1, component B: nodes 2-3, component C: 4-5
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(1.0, 0.0));
        let b0 = b.add_node(Point::new(50.0, 0.0));
        let b1 = b.add_node(Point::new(51.0, 0.0));
        let c0 = b.add_node(Point::new(100.0, 100.0));
        let c1 = b.add_node(Point::new(101.0, 100.0));
        b.add_edge(a0, a1, None).unwrap();
        b.add_edge(b0, b1, None).unwrap();
        b.add_edge(c0, c1, None).unwrap();
        let net = b.build().unwrap();
        let mut store = TrajectoryStore::new();
        store.push(traj(&[0, 1], 0.0, &[5])); // component A
        store.push(traj(&[4, 5], 0.0, &[1, 2])); // component C: unreachable
        store.push(traj(&[4, 5], 100.0, &[2])); // component C: unreachable
        (net, store)
    }

    #[test]
    fn full_source_exhaustion_terminates_cleanly_under_every_scheduler() {
        let (net, store) = exhaustion_fixture();
        let q = UotsQuery::new(vec![NodeId(0), NodeId(2)], kws(&[1, 2]))
            .unwrap()
            .reoptioned(QueryOptions {
                k: 3,
                ..Default::default()
            })
            .unwrap();
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &store, &vidx);
        let oracle =
            crate::algorithms::Algorithm::run(&crate::algorithms::BruteForce, &db, &q).unwrap();
        for s in [
            Scheduler::RoundRobin,
            Scheduler::MinRadius,
            Scheduler::heuristic(),
            // recompute_every = 1 forces the max_by re-selection on every
            // step, including the step where the last source dies
            Scheduler::Heuristic { recompute_every: 1 },
        ] {
            let r = run(&net, &store, &q, s);
            assert_eq!(r.ids(), oracle.ids(), "{s:?}");
            assert!(r.is_ranked(), "{s:?}");
            for (x, y) in r.matches.iter().zip(oracle.matches.iter()) {
                assert!((x.similarity - y.similarity).abs() < 1e-12, "{s:?}");
            }
        }
    }

    #[test]
    fn exhaustion_with_temporal_channel_and_threshold_search() {
        // same fixture, but exercise the threshold driver and a temporal
        // query, both of which share pick_source
        let (net, store) = exhaustion_fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let tidx = store.build_timestamp_index();
        let db = Database::new(&net, &store, &vidx).with_timestamp_index(&tidx);
        let q = UotsQuery::with_options(
            vec![NodeId(0), NodeId(2)],
            kws(&[2]),
            vec![60.0],
            QueryOptions {
                weights: Weights::new(0.2, 0.4, 0.4).unwrap(),
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for s in [
            Scheduler::RoundRobin,
            Scheduler::MinRadius,
            Scheduler::Heuristic { recompute_every: 1 },
        ] {
            let r = search_plain(&db, &q, s).unwrap();
            assert_eq!(r.matches.len(), 3, "{s:?}");
            let t = threshold_plain(&db, &q, 0.01, s).unwrap();
            assert!(t.is_ranked(), "{s:?}");
        }
    }

    #[test]
    fn threshold_search_returns_exactly_the_qualifying_set() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &store, &vidx);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(7)], kws(&[1, 2])).unwrap();
        // oracle: brute force with a huge k, filtered
        let all = {
            let q_all = q
                .reoptioned(QueryOptions {
                    k: 100,
                    ..Default::default()
                })
                .unwrap();
            crate::algorithms::Algorithm::run(&crate::algorithms::BruteForce, &db, &q_all).unwrap()
        };
        for theta in [0.2, 0.5, 0.8] {
            let got = threshold_plain(&db, &q, theta, Scheduler::heuristic()).unwrap();
            let expect: Vec<TrajectoryId> = all
                .matches
                .iter()
                .filter(|m| m.similarity >= theta)
                .map(|m| m.id)
                .collect();
            assert_eq!(got.ids(), expect, "θ={theta}");
            assert!(got.is_ranked());
            for m in &got.matches {
                assert!(m.similarity >= theta);
            }
        }
    }

    #[test]
    fn threshold_search_validates_theta() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &store, &vidx);
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[])).unwrap();
        assert!(threshold_plain(&db, &q, 0.0, Scheduler::heuristic()).is_err());
        assert!(threshold_plain(&db, &q, 1.5, Scheduler::heuristic()).is_err());
    }

    #[test]
    fn high_threshold_terminates_quickly_with_empty_result() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &store, &vidx);
        // locations far from every trajectory, near-1 threshold: nothing
        // qualifies, and the fixed threshold prunes from the first step
        let q = UotsQuery::with_options(
            vec![NodeId(30)],
            kws(&[]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(1.0).unwrap(),
                ..Default::default()
            },
        )
        .unwrap();
        let r = threshold_plain(&db, &q, 0.999, Scheduler::heuristic()).unwrap();
        assert!(r.matches.is_empty());
        assert!(
            r.metrics.settled_vertices < net.num_nodes(),
            "threshold pruning should stop the expansion early"
        );
    }

    #[test]
    fn metrics_are_populated() {
        let (net, store) = fixture();
        let q = UotsQuery::new(vec![NodeId(0)], kws(&[1])).unwrap();
        let r = run(&net, &store, &q, Scheduler::heuristic());
        assert_eq!(r.metrics.queries, 1);
        assert!(r.metrics.settled_vertices > 0);
        assert!(r.metrics.visited_trajectories >= r.metrics.candidates);
        assert!(r.metrics.candidates >= r.matches.len());
        assert!(r.metrics.heap_pushes >= r.metrics.candidates);
        assert!(r.metrics.peak_frontier > 0);
        // uninstrumented runs must not fabricate a phase breakdown
        assert!(r.metrics.phases.is_zero());
    }

    #[test]
    fn recorded_run_attributes_time_to_phases() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let tidx = store.build_timestamp_index();
        let db = Database::new(&net, &store, &vidx).with_timestamp_index(&tidx);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(7)], kws(&[1, 2])).unwrap();
        let plain = search_plain(&db, &q, Scheduler::heuristic()).unwrap();
        let mut rec = Recorder::phases_only("engine-test");
        let r = expansion_search_ctx(
            &db,
            &q,
            Scheduler::heuristic(),
            &RunControl::unbounded(),
            &mut rec,
            &SearchContext::new(),
        )
        .unwrap();
        assert_eq!(r.ids(), plain.ids());
        assert!(!r.metrics.phases.is_zero());
        assert!(r.metrics.phases.nanos(Phase::NetworkExpansion) > 0);
        assert!(r.metrics.phases.nanos(Phase::HeapMaintenance) > 0);
        // the snapshot is taken before `runtime` is stamped, so the phase
        // total can never exceed the reported wall clock
        assert!(r.metrics.phases.total() <= r.metrics.runtime);
        // instrumentation must not change the work done
        assert_eq!(r.metrics.heap_pushes, plain.metrics.heap_pushes);
        assert_eq!(r.metrics.peak_frontier, plain.metrics.peak_frontier);
        assert_eq!(r.metrics.settled_vertices, plain.metrics.settled_vertices);
    }
}
