//! Per-trajectory candidate search — the "trajectory-search phase" of the
//! two-phase join.
//!
//! For one probe trajectory τ the worker expands the network concurrently
//! from every distinct sample vertex of τ and the time axis from every
//! distinct timestamp, maintaining for each encountered trajectory τ′ the
//! exact per-source distances (first sighting = exact, Dijkstra order) and
//! an upper bound on the *pair* similarity:
//!
//! ```text
//! UB(τ,τ′) = λ·(UB_half1_S + UB_half2_S)/2 + (1−λ)·(UB_half1_T + UB_half2_T)/2
//! UB_half1 = Σ_i w_i e^(−lb_i)            (τ's own samples, bounds/exact)
//! UB_half2 = e^(−min_i lb_i)              (Lemma 1: τ′'s samples cannot be
//!                                          closer to τ than τ's closest
//!                                          sample is to τ′)
//! ```
//!
//! Trajectories fully scanned from every live source have an exact first
//! half; if their bound still reaches θ they become **candidates** carrying
//! that half. The search terminates when no unseen or partly-scanned
//! trajectory can reach θ. The merge phase
//! ([`crate::ts_join`]) then sums the two directed halves of each
//! candidate pair — both directions are guaranteed present for every
//! qualifying pair.
//!
//! The worker reads the parts of a view as the engine does, in global
//! ids: a settle walks the view's one posting list, and a probe time's
//! source is a [`TimeChannel`] merging the parts' timestamp expansions by
//! gap.
//!
//! Workers own their expansion scratch and are reused across probe
//! trajectories, so a full join performs no per-search network-sized
//! allocations after warm-up.

use crate::similarity::{distinct_nodes_weighted, distinct_times_weighted, Half};
use crate::JoinConfig;
use std::collections::{BinaryHeap, HashMap};
use uots_core::{Part, TimeChannel};
use uots_index::VertexInvertedIndex;
use uots_network::expansion::NetworkExpansion;
use uots_network::TotalF64;
use uots_trajectory::{Trajectory, TrajectoryId};

/// A candidate partner (global id) with the probe's directed
/// half-contribution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub other: TrajectoryId,
    pub half: Half,
}

/// Per-search effort counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SearchStats {
    pub visited: usize,
    pub settled_vertices: usize,
    pub scanned_timestamps: usize,
    pub candidates: usize,
}

struct PairState {
    sdists: Vec<f64>,
    s_rem: u32,
    tdists: Vec<f64>,
    t_rem: u32,
    done: bool,
}

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

/// A reusable join-search worker bound to the parts of one view and its
/// vertex index.
pub(crate) struct Worker<'a> {
    parts: &'a [Part<'a>],
    vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
    /// Expansion scratch, grown on demand and restarted per search.
    sources: Vec<NetworkExpansion<'a>>,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(
        parts: &'a [Part<'a>],
        vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
    ) -> Self {
        Worker {
            parts,
            vertex_index,
            sources: Vec::new(),
        }
    }

    /// Finds every candidate partner of the parts' own trajectory `traj`,
    /// global id `probe`, under `cfg` (self-join direction: the probe id is
    /// excluded).
    pub(crate) fn search(
        &mut self,
        cfg: &JoinConfig,
        probe: TrajectoryId,
        traj: &Trajectory,
    ) -> (Vec<Candidate>, SearchStats) {
        let (nodes, node_weights) = distinct_nodes_weighted(traj);
        let (times, time_weights) = distinct_times_weighted(traj);
        assert!(
            nodes.len() <= cfg.max_sources,
            "probe trajectory has {} distinct vertices, exceeding max_sources {}",
            nodes.len(),
            cfg.max_sources
        );
        let ns = nodes.len();
        let nt = times.len();

        let use_temporal = cfg.lambda < 1.0;
        let use_spatial = cfg.lambda > 0.0;
        // spatial sources only when the spatial half matters
        if use_spatial {
            let net = self.parts[0].db.network;
            for (i, &v) in nodes.iter().enumerate() {
                if let Some(src) = self.sources.get_mut(i) {
                    src.start(v);
                } else {
                    self.sources.push(NetworkExpansion::from_source(net, v));
                }
            }
        }
        let mut temporal: Vec<TimeChannel<'a>> = times
            .iter()
            .map(|&t| TimeChannel::new(self.parts, t))
            .collect();

        let active_t = if use_temporal { nt } else { 0 };
        let active_s = if use_spatial { ns } else { 0 };

        let mut states: HashMap<TrajectoryId, PairState> = HashMap::new();
        let mut heap: BinaryHeap<BoundEntry> = BinaryHeap::new();
        let mut out: Vec<Candidate> = Vec::new();
        let mut stats = SearchStats::default();
        let mut rr = 0usize;
        let num_sources = active_s + active_t;
        debug_assert!(num_sources > 0);

        // distance lower bound of spatial source i for unscanned trajectories
        let s_lb = |exp: &NetworkExpansion<'_>| exp.unsettled_lower_bound();
        let t_lb = TimeChannel::radius;

        macro_rules! ub_of {
            ($st:expr) => {{
                let st: &PairState = $st;
                let mut half1_s = 0.0;
                let mut min_s = f64::INFINITY;
                if use_spatial {
                    for i in 0..ns {
                        let d = if st.sdists[i].is_nan() {
                            s_lb(&self.sources[i])
                        } else {
                            st.sdists[i]
                        };
                        min_s = min_s.min(d);
                        half1_s += node_weights[i] * (-d / cfg.decay_km).exp();
                    }
                }
                let mut half1_t = 0.0;
                let mut min_t = f64::INFINITY;
                if use_temporal {
                    for j in 0..nt {
                        let d = if st.tdists[j].is_nan() {
                            t_lb(&temporal[j])
                        } else {
                            st.tdists[j]
                        };
                        min_t = min_t.min(d);
                        half1_t += time_weights[j] * (-d / cfg.decay_s).exp();
                    }
                }
                let half2_s = (-min_s / cfg.decay_km).exp();
                let half2_t = (-min_t / cfg.decay_s).exp();
                cfg.lambda * (half1_s + half2_s) / 2.0
                    + (1.0 - cfg.lambda) * (half1_t + half2_t) / 2.0
            }};
        }

        macro_rules! finalize {
            ($tid:expr, $st:expr) => {{
                let tid: TrajectoryId = $tid;
                let st: &mut PairState = $st;
                st.done = true;
                stats.candidates += 1;
                let mut half1_s = 0.0;
                let mut min_s = f64::INFINITY;
                if use_spatial {
                    for i in 0..ns {
                        debug_assert!(!st.sdists[i].is_nan());
                        min_s = min_s.min(st.sdists[i]);
                        half1_s += node_weights[i] * (-st.sdists[i] / cfg.decay_km).exp();
                    }
                }
                let mut half1_t = 0.0;
                let mut min_t = f64::INFINITY;
                if use_temporal {
                    for j in 0..nt {
                        min_t = min_t.min(st.tdists[j]);
                        half1_t += time_weights[j] * (-st.tdists[j] / cfg.decay_s).exp();
                    }
                }
                // keep only pairs whose Lemma-1 bound still reaches θ
                let ub = cfg.lambda * (half1_s + (-min_s / cfg.decay_km).exp()) / 2.0
                    + (1.0 - cfg.lambda) * (half1_t + (-min_t / cfg.decay_s).exp()) / 2.0;
                if ub >= cfg.theta {
                    out.push(Candidate {
                        other: tid,
                        half: Half {
                            spatial: cfg.lambda * half1_s / 2.0,
                            temporal: (1.0 - cfg.lambda) * half1_t / 2.0,
                        },
                    });
                }
            }};
        }

        macro_rules! touch {
            ($tid:expr) => {{
                let tid: TrajectoryId = $tid;
                stats.visited += 1;
                let mut sdists = vec![f64::NAN; if use_spatial { ns } else { 0 }];
                let mut s_rem = 0u32;
                if use_spatial {
                    for (i, d) in sdists.iter_mut().enumerate() {
                        if self.sources[i].is_exhausted() {
                            *d = f64::INFINITY;
                        } else {
                            s_rem += 1;
                        }
                    }
                }
                let mut tdists = vec![f64::NAN; if use_temporal { nt } else { 0 }];
                let mut t_rem = 0u32;
                if use_temporal {
                    for (j, d) in tdists.iter_mut().enumerate() {
                        if temporal[j].is_exhausted() {
                            *d = f64::INFINITY;
                        } else {
                            t_rem += 1;
                        }
                    }
                }
                let _ = tid;
                PairState {
                    sdists,
                    s_rem,
                    tdists,
                    t_rem,
                    done: false,
                }
            }};
        }

        // Exhaustion sweep: a source that can deliver no further vertex
        // makes every pending distance toward it exact ∞. Run on the
        // exhaustion *transition* (tracked in `swept`) rather than relying
        // on a trailing `next_settled() == None` event — a source can empty
        // its heap on its very last settle.
        let mut swept = vec![false; active_s];
        macro_rules! sweep_spatial {
            ($src:expr) => {{
                let src: usize = $src;
                let pending: Vec<TrajectoryId> = states
                    .iter()
                    .filter(|(_, st)| !st.done && st.sdists[src].is_nan())
                    .map(|(&t, _)| t)
                    .collect();
                for tid in pending {
                    let st = states.get_mut(&tid).expect("present");
                    st.sdists[src] = f64::INFINITY;
                    st.s_rem -= 1;
                    if st.s_rem == 0 && st.t_rem == 0 {
                        finalize!(tid, st);
                    }
                }
            }};
        }

        loop {
            for (i, sw) in swept.iter_mut().enumerate() {
                if !*sw && self.sources[i].is_exhausted() {
                    *sw = true;
                    sweep_spatial!(i);
                }
            }

            // ---- pick the next live source, round-robin ----
            let live = |s: usize| {
                if s < active_s {
                    !self.sources[s].is_exhausted()
                } else {
                    !temporal[s - active_s].is_exhausted()
                }
            };
            let next = (0..num_sources)
                .map(|off| (rr + off) % num_sources)
                .find(|&s| live(s));
            let Some(src) = next else {
                break; // everything exhausted: all reachable pairs finalized
            };
            rr = src + 1;

            // ---- one scan step ----
            if src < active_s {
                match self.sources[src].next_settled() {
                    Some(settled) => {
                        stats.settled_vertices += 1;
                        for &tid in self.vertex_index.values_at(settled.node) {
                            if tid == probe {
                                continue;
                            }
                            let created = !states.contains_key(&tid);
                            let st = states.entry(tid).or_insert_with(|| touch!(tid));
                            if st.done {
                                continue;
                            }
                            if st.sdists[src].is_nan() {
                                st.sdists[src] = settled.dist;
                                st.s_rem -= 1;
                            } else if created && st.sdists[src] == f64::INFINITY {
                                // this very settle exhausted the source;
                                // keep the exact distance it delivered
                                st.sdists[src] = settled.dist;
                            } else {
                                continue;
                            }
                            if st.s_rem == 0 && st.t_rem == 0 {
                                finalize!(tid, st);
                            } else {
                                let ub = ub_of!(&*st);
                                heap.push(BoundEntry {
                                    ub: TotalF64(ub),
                                    tid,
                                });
                            }
                        }
                    }
                    None => {
                        // stale heap entries drained: the source exhausted
                        // without delivering a vertex this step
                        if !swept[src] {
                            swept[src] = true;
                            sweep_spatial!(src);
                        }
                    }
                }
            } else {
                let j = src - active_s;
                match temporal[j].next_scanned() {
                    Some((p, scanned)) => {
                        stats.scanned_timestamps += 1;
                        let tid = self.parts[p].ids.global(scanned.value);
                        if tid != probe {
                            let created = !states.contains_key(&tid);
                            let st = states.entry(tid).or_insert_with(|| touch!(tid));
                            let fresh = if st.done {
                                false
                            } else if st.tdists[j].is_nan() {
                                st.tdists[j] = scanned.dt;
                                st.t_rem -= 1;
                                true
                            } else if created && st.tdists[j] == f64::INFINITY {
                                // exhaustion-moment correction, as spatial
                                st.tdists[j] = scanned.dt;
                                true
                            } else {
                                false
                            };
                            if fresh {
                                if st.s_rem == 0 && st.t_rem == 0 {
                                    finalize!(tid, st);
                                } else {
                                    let ub = ub_of!(&*st);
                                    heap.push(BoundEntry {
                                        ub: TotalF64(ub),
                                        tid,
                                    });
                                }
                            }
                        }
                    }
                    None => {
                        let pending: Vec<TrajectoryId> = states
                            .iter()
                            .filter(|(_, st)| !st.done && st.tdists[j].is_nan())
                            .map(|(&t, _)| t)
                            .collect();
                        for tid in pending {
                            let st = states.get_mut(&tid).expect("present");
                            st.tdists[j] = f64::INFINITY;
                            st.t_rem -= 1;
                            if st.s_rem == 0 && st.t_rem == 0 {
                                finalize!(tid, st);
                            }
                        }
                    }
                }
            }

            // ---- termination test ----
            let mut ub_unseen = 0.0;
            if use_spatial {
                let mut acc = 0.0;
                let mut min_r = f64::INFINITY;
                for (w, e) in node_weights.iter().zip(&self.sources).take(ns) {
                    let r = s_lb(e);
                    min_r = min_r.min(r);
                    acc += w * (-r / cfg.decay_km).exp();
                }
                ub_unseen += cfg.lambda * (acc + (-min_r / cfg.decay_km).exp()) / 2.0;
            }
            if use_temporal {
                let mut acc = 0.0;
                let mut min_r = f64::INFINITY;
                for j in 0..nt {
                    let r = t_lb(&temporal[j]);
                    min_r = min_r.min(r);
                    acc += time_weights[j] * (-r / cfg.decay_s).exp();
                }
                ub_unseen += (1.0 - cfg.lambda) * (acc + (-min_r / cfg.decay_s).exp()) / 2.0;
            }
            if ub_unseen >= cfg.theta {
                continue;
            }
            // partly scanned: lazy heap cleanup
            let mut blocked = false;
            while let Some(entry) = heap.peek() {
                let tid = entry.tid;
                match states.get(&tid) {
                    Some(st) if !st.done => {
                        let cur = ub_of!(st);
                        if cur >= cfg.theta {
                            blocked = true;
                            break;
                        }
                        heap.pop();
                    }
                    _ => {
                        heap.pop();
                    }
                }
            }
            if !blocked {
                break;
            }
        }

        (out, stats)
    }
}
