//! Edge cases of bound-driven candidate retirement (see the engine's
//! module docs): exact-tie plateaus, the threshold collector, interrupted
//! runs against the engine with retirement switched off, source
//! exhaustion over a live list that holds retired states, and the posting
//! loop's `dead` skip against the engine without it.

use super::tests::{search_plain, threshold_plain};
use super::*;
use crate::algorithms::{Algorithm, BruteForce};
use crate::query::{QueryOptions, Weights};
use crate::ExecutionBudget;
use proptest::prelude::*;
use uots_datagen::{workload, Dataset, DatasetConfig};
use uots_network::generators::{grid_city, GridCityConfig};
use uots_network::{NetworkBuilder, NodeId, Point, RoadNetwork};
use uots_text::{KeywordId, KeywordSet};
use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::RoundRobin,
    Scheduler::MinRadius,
    Scheduler::Heuristic {
        recompute_every: 128,
    },
    // a label sweep (and its retirement pass) before every single step
    Scheduler::Heuristic { recompute_every: 1 },
];

fn kws(ids: &[u32]) -> KeywordSet {
    KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
}

fn traj(nodes: &[u32], tags: &[u32]) -> Trajectory {
    let samples = nodes
        .iter()
        .enumerate()
        .map(|(i, &v)| Sample {
            node: NodeId(v),
            time: 60.0 * i as f64,
        })
        .collect();
    Trajectory::new(samples, kws(tags)).unwrap()
}

fn bits(r: &QueryResult) -> Vec<(TrajectoryId, u64)> {
    r.matches
        .iter()
        .map(|m| (m.id, m.similarity.to_bits()))
        .collect()
}

/// Runs `f` with one of the engine's test-only switches — `RETIREMENT_OFF`
/// or `DEAD_SKIP_OFF` — set for this thread's engine runs.
fn with_off<T>(
    switch: &'static std::thread::LocalKey<std::cell::Cell<bool>>,
    f: impl FnOnce() -> T,
) -> T {
    switch.with(|off| off.set(true));
    let out = f();
    switch.with(|off| off.set(false));
    out
}

/// The 8 vertices at lattice distance exactly 2 from the centre (4, 4) of
/// the 9×9 unit grid (vertex `(col, row)` has id `row * 9 + col`).
const RING: [u32; 8] = [22, 58, 38, 42, 30, 32, 48, 50];
const CORNER: u32 = 0;
const CENTRE: u32 = 40;

/// A tie plateau: every ring vertex carries two duplicate trajectories
/// `[corner, x]`, so for the query `(corner, centre)` all 16 score the
/// same bits — distance 0 from the corner, exactly 2 from the centre. The
/// centre's expansion settles the ring one vertex at a time at radius 2:
/// after the first one finalizes, every other ring trajectory is partly
/// scanned with a bound that *equals* the k-th score. `rotation` moves the
/// lowest ids around the ring, so whichever vertex Dijkstra happens to
/// settle last holds the rightful winner in one of the rotations.
fn plateau(rotation: usize) -> (RoadNetwork, TrajectoryStore) {
    let net = grid_city(&GridCityConfig::tiny(9)).unwrap();
    let mut store = TrajectoryStore::new();
    for j in 0..RING.len() {
        let x = RING[(j + rotation) % RING.len()];
        store.push(traj(&[CORNER, x], &[1, 2]));
        store.push(traj(&[CORNER, x], &[1, 2]));
    }
    // badly tagged neighbours of the corner: sighted early, bounded
    // strictly below the plateau, so they retire
    for near in [1, 9, 10, 2] {
        store.push(traj(&[near], &[9]));
    }
    (net, store)
}

fn plateau_query(k: usize) -> UotsQuery {
    UotsQuery::with_options(
        vec![NodeId(CORNER), NodeId(CENTRE)],
        kws(&[1, 2]),
        vec![],
        QueryOptions {
            k,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn a_bound_equal_to_kth_is_not_retired_and_wins_the_id_tie_break() {
    for rotation in 0..RING.len() {
        let (net, store) = plateau(rotation);
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &store, &vidx);
        for k in [1, 3, 16] {
            let q = plateau_query(k);
            let oracle = BruteForce.run(&db, &q).unwrap();
            let want: Vec<u32> = (0..k as u32).collect();
            assert_eq!(
                oracle.ids(),
                want.iter().map(|&i| TrajectoryId(i)).collect::<Vec<_>>()
            );
            for s in SCHEDULERS {
                let got = search_plain(&db, &q, s).unwrap();
                assert_eq!(bits(&got), bits(&oracle), "rotation {rotation} k={k} {s:?}");
            }
        }
    }
}

#[test]
fn threshold_mode_reports_similarity_exactly_theta() {
    let (net, store) = plateau(3);
    let vidx = store.build_vertex_index(net.num_nodes());
    let db = Database::new(&net, &store, &vidx);
    let q = plateau_query(1);
    let theta = BruteForce.run(&db, &q).unwrap().matches[0].similarity;
    for s in SCHEDULERS {
        let got = threshold_plain(&db, &q, theta, s).unwrap();
        let ids: Vec<u32> = got.matches.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (0..16).collect::<Vec<u32>>(), "{s:?}");
        assert!(got.matches.iter().all(|m| m.similarity == theta));
        // the badly tagged ones are bounded strictly below θ: retired
        assert!(got.metrics.retired > 0, "{s:?}: {:?}", got.metrics);
    }
}

/// Two components: A is a 6-vertex path (unit edges), B two vertices 0.1
/// apart. The query has one place in each. The bridge trajectory sits on
/// both places with half the keywords, so it finalizes at once and sets
/// `kth = 0.75` for k = 1. Of the A-side trajectories, the well-tagged one
/// stays live (bound 0.82 while B's radius is ≤ 0.1) and the badly-tagged
/// ones retire (bound ≤ 0.5) — then B exhausts with both kinds listed.
#[test]
fn a_source_exhausting_over_retired_states_finalizes_only_the_live_ones() {
    let mut b = NetworkBuilder::new();
    let a: Vec<_> = (0..6)
        .map(|i| b.add_node(Point::new(f64::from(i), 0.0)))
        .collect();
    let b0 = b.add_node(Point::new(100.0, 100.0));
    let b1 = b.add_node(Point::new(100.1, 100.0));
    for w in a.windows(2) {
        b.add_edge(w[0], w[1], None).unwrap();
    }
    b.add_edge(b0, b1, None).unwrap();
    let net = b.build().unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[1, 2], &[1, 2])); // well tagged, 1 km from a0
    store.push(traj(&[1], &[9])); // badly tagged
    store.push(traj(&[2, 3], &[8])); // badly tagged
    store.push(traj(&[0, 6], &[1])); // the bridge: on both places
    store.push(traj(&[7], &[1, 2])); // B only, well tagged
    store.push(traj(&[4, 5], &[9])); // badly tagged, far
    let vidx = store.build_vertex_index(net.num_nodes());
    let db = Database::new(&net, &store, &vidx);
    let q = UotsQuery::with_options(
        vec![a[0], b0],
        kws(&[1, 2]),
        vec![],
        QueryOptions {
            k: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let oracle = BruteForce.run(&db, &q).unwrap();
    assert_eq!(oracle.ids(), vec![TrajectoryId(3)]);
    for s in SCHEDULERS {
        let got = search_plain(&db, &q, s).unwrap();
        assert_eq!(bits(&got), bits(&oracle), "{s:?}");
        let m = &got.metrics;
        // round-robin alternates the two places, so B exhausts after both
        // badly-tagged neighbours retired; min-radius drains B first
        let expect = if s == Scheduler::RoundRobin { 2 } else { 1 };
        assert!(m.retired >= expect, "{s:?}: {m:?}");
        assert!(
            m.candidates + m.retired <= m.visited_trajectories,
            "{s:?}: {m:?}"
        );
        let plain = with_off(&RETIREMENT_OFF, || search_plain(&db, &q, s).unwrap());
        assert_eq!(bits(&plain), bits(&oracle), "{s:?}");
        assert_eq!(plain.metrics.retired, 0);
        assert_eq!(plain.metrics.visited_trajectories, m.visited_trajectories);
        assert_eq!(plain.metrics.settled_vertices, m.settled_vertices);
        assert!(plain.metrics.candidates >= m.candidates, "{s:?}");
    }
}

/// A 10-vertex path with the two query places at its ends, in threshold
/// mode (θ = 0.3 from the first step, so nothing waits on a top-k filling).
/// `all` lies on every vertex with both keywords: finalized once each end
/// has settled its own vertex, and posted again by every later settle.
/// `bad` = `[a2, a3, a4]` shares no keyword: first sighted at radius 2 with
/// the other end at radius ≥ 1, its bound is at most `¼(e⁻² + e⁻¹) ≈ 0.13
/// < θ` — retired on the spot, then posted at `a3` and `a4`. `mid` at `a5`
/// holds both keywords and keeps the unscanned bound above θ until both
/// ends have reached it, so the run walks past all of those postings.
#[test]
fn later_postings_of_finished_trajectories_move_no_counter() {
    let mut b = NetworkBuilder::new();
    let a: Vec<_> = (0..10)
        .map(|i| b.add_node(Point::new(f64::from(i), 0.0)))
        .collect();
    for w in a.windows(2) {
        b.add_edge(w[0], w[1], None).unwrap();
    }
    let net = b.build().unwrap();
    let mut store = TrajectoryStore::new();
    store.push(traj(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[1, 2])); // all
    store.push(traj(&[2, 3, 4], &[9])); // bad
    store.push(traj(&[5], &[1, 2])); // mid
    let vidx = store.build_vertex_index(net.num_nodes());
    let db = Database::new(&net, &store, &vidx);
    let q = UotsQuery::new(vec![a[0], a[9]], kws(&[1, 2])).unwrap();
    for s in SCHEDULERS {
        let got = threshold_plain(&db, &q, 0.3, s).unwrap();
        let plain = with_off(&DEAD_SKIP_OFF, || threshold_plain(&db, &q, 0.3, s).unwrap());
        assert_eq!(bits(&got), bits(&plain), "{s:?}");
        assert_eq!(
            got.ids(),
            vec![TrajectoryId(0), TrajectoryId(2)],
            "{s:?}: all and mid reach θ"
        );
        let m = &got.metrics;
        // both ends walked to `mid`, past every vertex of `bad`
        assert!(m.settled_vertices >= 11, "{s:?}: {m:?}");
        assert_eq!((m.candidates, m.retired), (2, 1), "{s:?}: {m:?}");
        let timeless = |m: &SearchMetrics| SearchMetrics {
            runtime: Default::default(),
            ..m.clone()
        };
        assert_eq!(timeless(m), timeless(&plain.metrics), "{s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interrupted runs: retirement changes neither *when* the budget
    /// trips (visited and settled counts are untouched) nor what the
    /// collector holds at that moment; the certificate may only tighten,
    /// and stays sound against the oracle.
    #[test]
    fn interrupted_runs_report_the_same_matches_and_a_sound_gap(
        seed in 0u64..6,
        qi in 0usize..6,
        k in 1usize..5,
        lambda in 0.05f64..=0.95,
        max_visited in 1usize..260,
        heuristic in any::<bool>(),
    ) {
        let ds = Dataset::build(&DatasetConfig::small(250, seed)).unwrap();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let spec = &workload::generate(&ds, &workload::WorkloadConfig {
            num_queries: 6,
            seed: seed ^ 0x5eed,
            ..Default::default()
        })[qi];
        let options = |k: usize, budget: ExecutionBudget| QueryOptions {
            weights: Weights::lambda(lambda).unwrap(),
            k,
            budget,
            ..Default::default()
        };
        let query = |o: QueryOptions| {
            UotsQuery::with_options(spec.locations.clone(), spec.keywords.clone(), vec![], o)
                .unwrap()
        };
        let scheduler = if heuristic { Scheduler::heuristic() } else { Scheduler::RoundRobin };
        let budgeted = query(options(k, ExecutionBudget::default().with_max_visited(max_visited)));

        let with = search_plain(&db, &budgeted, scheduler).unwrap();
        let without =
            with_off(&RETIREMENT_OFF, || search_plain(&db, &budgeted, scheduler).unwrap());
        prop_assert_eq!(bits(&with), bits(&without));
        prop_assert_eq!(with.metrics.visited_trajectories, without.metrics.visited_trajectories);
        prop_assert_eq!(with.metrics.settled_vertices, without.metrics.settled_vertices);
        let gap = with.completeness.bound_gap();
        prop_assert!(gap <= without.completeness.bound_gap() + 1e-12);

        let oracle = BruteForce.run(&db, &query(options(k, ExecutionBudget::default()))).unwrap();
        for (i, o) in oracle.matches.iter().enumerate() {
            let returned = with.matches.get(i).map_or(0.0, |m| m.similarity);
            prop_assert!(
                o.similarity <= returned + gap + 1e-9,
                "rank {}: oracle {} > returned {} + gap {}", i, o.similarity, returned, gap
            );
        }
        if with.completeness.is_exact() {
            prop_assert_eq!(bits(&with), bits(&oracle));
        }
    }
}

/// Runs the plateau query as one shard of a scattered query under `floor`.
fn floored(db: &Database<'_>, q: &UotsQuery, s: Scheduler, floor: f64) -> QueryResult {
    let logs = std::sync::Arc::new(crate::SettleLogs::new(q.num_locations()));
    let ctx = SearchContext::new().scattered(&logs, floor);
    let ctl = RunControl::unbounded();
    expansion_search_ctx(db, q, s, &ctl, &mut Recorder::disabled(), &ctx).unwrap()
}

/// A floor is a pruning threshold like the k-th score: a trajectory whose
/// bound *equals* it stays live and is reported (it may win the merged
/// tie-break), one strictly below it is never evaluated, and once nothing
/// can reach it the run ends — exact, with an unfilled top-k.
#[test]
fn a_floor_prunes_strictly_and_terminates_an_unfilled_run() {
    let (net, store) = plateau(3);
    let vidx = store.build_vertex_index(net.num_nodes());
    let db = Database::new(&net, &store, &vidx);
    let q = plateau_query(16);
    let oracle = BruteForce.run(&db, &q).unwrap();
    let tie = oracle.matches[0].similarity;
    assert_eq!(tie.to_bits(), oracle.matches[15].similarity.to_bits());
    for s in SCHEDULERS {
        let free = search_plain(&db, &q, s).unwrap();

        // floor == the plateau: all sixteen survive, the badly tagged
        // neighbours are retired instead of evaluated, and the run stops
        // by bound although its own top-k never fills past the plateau
        let at = floored(&db, &plateau_query(20), s, tie);
        assert!(at.completeness.is_exact(), "{s:?}");
        assert_eq!(bits(&at), bits(&oracle), "{s:?}");
        assert!(at.metrics.candidates <= free.metrics.candidates, "{s:?}");

        // one ulp above it: nothing here can matter. As soon as the
        // centre's radius reaches the ring, every trajectory — seen or not
        // — is bounded at the plateau, strictly below the floor, and the
        // run stops with most of its top-k empty
        let above = floored(&db, &q, s, f64::from_bits(tie.to_bits() + 1));
        assert!(above.completeness.is_exact(), "{s:?}");
        assert!(above.matches.len() < 16, "{s:?}");
        assert!(above.metrics.candidates < free.metrics.candidates, "{s:?}");
        assert!(
            above.metrics.settled_vertices < free.metrics.settled_vertices,
            "{s:?}: {} vs {}",
            above.metrics.settled_vertices,
            free.metrics.settled_vertices
        );
    }
}

/// Interrupted under a floor, the run measures its gap from the floor (its
/// pruning threshold), and a gap of zero there is an exact answer even
/// though fewer than `k` matches were found.
#[test]
fn an_interrupted_floored_run_certifies_from_its_floor() {
    let (net, store) = plateau(0);
    let vidx = store.build_vertex_index(net.num_nodes());
    let db = Database::new(&net, &store, &vidx);
    let budgeted = |max_settled| {
        let mut opts = plateau_query(16).options().clone();
        opts.budget = ExecutionBudget::default().with_max_settled(max_settled);
        plateau_query(16).reoptioned(opts).unwrap()
    };
    let s = Scheduler::RoundRobin;
    // no floor: one settle in, nothing is certified below similarity 1
    let bare = search_plain(&db, &budgeted(1), s).unwrap();
    let bare_gap = bare.completeness.bound_gap();
    assert!(!bare.completeness.is_exact() && bare.matches.is_empty());
    // a floor of 0.9 is the base the same interruption measures from
    let run = floored(&db, &budgeted(1), s, 0.9);
    assert!(run.matches.is_empty());
    assert!((run.completeness.bound_gap() - (bare_gap - 0.9)).abs() < 1e-12);
    // and with the floor at the top of the scale the gap is zero: exact
    assert!(floored(&db, &budgeted(1), s, 1.0).completeness.is_exact());
}
