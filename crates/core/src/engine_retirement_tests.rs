//! Edge cases of bound-driven candidate retirement (see the engine's
//! module docs): exact-tie plateaus, interrupted runs against the engine
//! with retirement switched off, source exhaustion over a live list that
//! holds retired states, and the posting loop's `heard` skip against the
//! engine without it.

use super::tests::search_plain;
use super::*;
use crate::algorithms::{Algorithm, BruteForce};
use crate::query::{QueryOptions, Weights};
use crate::{Database, ExecutionBudget};
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
/// or `HEARD_SKIP_OFF` — set for this thread's engine runs.
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
        let kb = store.build_keyword_blocks();
        let db = Database::new(&net, &store, &vidx, &kb);
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
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb);
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

/// A 10-vertex path with the two query places at its ends, k = 1 and
/// λ = 0.2. `all` lies on every vertex with one of the two keywords: it is
/// finalized once each end has settled its own vertex, fills the k-th at
/// 0.2 + 0.8 · ½ = 0.6, and is posted again by every later settle. `bad` =
/// `[a2, a3, a4]` shares no keyword, so its bound is at most λ < 0.6:
/// retired on first sight, then posted at `a3` and `a4`. `mid` at `a5`
/// holds both keywords, so its bound stays above 0.8 until both ends have
/// reached it: the run walks past all of those postings, and `mid` wins.
/// `Heuristic { recompute_every: 128 }` drains the `a9` end first, before
/// the k-th fills: there `bad` is finalized, not retired, and the skipped
/// postings are that end's farther revisits.
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
    store.push(traj(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &[1])); // all
    store.push(traj(&[2, 3, 4], &[9])); // bad
    store.push(traj(&[5], &[1, 2])); // mid
    let vidx = store.build_vertex_index(net.num_nodes());
    let kidx = store.build_keyword_index(16);
    let kb = store.build_keyword_blocks();
    let db = Database::new(&net, &store, &vidx, &kb).with_keyword_index(&kidx);
    let q = UotsQuery::with_options(
        vec![a[0], a[9]],
        kws(&[1, 2]),
        vec![],
        QueryOptions {
            weights: Weights::lambda(0.2).unwrap(),
            ..Default::default()
        },
    )
    .unwrap();
    for s in SCHEDULERS {
        let got = search_plain(&db, &q, s).unwrap();
        let plain = with_off(&HEARD_SKIP_OFF, || search_plain(&db, &q, s).unwrap());
        assert_eq!(bits(&got), bits(&plain), "{s:?}");
        assert_eq!(got.ids(), vec![TrajectoryId(2)], "{s:?}: mid wins");
        let m = &got.metrics;
        // both ends walked to `mid`, past every vertex of `bad`
        assert!(m.settled_vertices >= 11, "{s:?}: {m:?}");
        let drains_a9_first = s
            == Scheduler::Heuristic {
                recompute_every: 128,
            };
        let expect = if drains_a9_first { (3, 0) } else { (2, 1) };
        assert_eq!((m.candidates, m.retired), expect, "{s:?}: {m:?}");
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
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
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

/// The plateau split into two hash parts: the sixteen plateau
/// trajectories on part 0 (global ids 0, 2, …, 30) and the four badly
/// tagged neighbours of the corner on part 1 (ids 1, 3, 5, 7; the odd ids
/// above are retired fillers). The second part holds no query keyword, so
/// its bound is λ — strictly below the plateau: once the top-k fills it is
/// retired, while the plateau part never is, and the answer is the
/// unsplit engine's whichever part the expansion reached first.
#[test]
fn a_part_bounded_strictly_below_kth_is_retired() {
    let (net, plateau) = plateau(3);
    let (mut a, mut b) = (TrajectoryStore::new(), TrajectoryStore::new());
    let mut store = TrajectoryStore::new();
    let mut live = uots_trajectory::LiveSet::all_live(32);
    for g in 0..32u32 {
        let t = match (g % 2, g / 2) {
            (0, l) => plateau.get(TrajectoryId(l)).clone(),
            (_, l) if l < 4 => plateau.get(TrajectoryId(16 + l)).clone(),
            _ => {
                live.retire(TrajectoryId(g));
                traj(&[80], &[])
            }
        };
        if live.is_live(TrajectoryId(g)) {
            [&mut a, &mut b][g as usize % 2].push(t.clone());
        }
        store.push(t);
    }
    let n = net.num_nodes();
    let global = store.build_vertex_index_live(n, &live);
    let (ka, kb) = (a.build_keyword_index(16), b.build_keyword_index(16));
    let (ta, tb) = (a.build_keyword_blocks(), b.build_keyword_blocks());
    let view = View::new(
        vec![
            Database::unindexed(&net, &a, &ta).with_keyword_index(&ka),
            Database::unindexed(&net, &b, &tb).with_keyword_index(&kb),
        ],
        &global,
        store.len(),
    );
    let kidx = store.build_keyword_index_live(16, &live);
    let blocks = store.build_keyword_blocks();
    let whole = Database::new(&net, &store, &global, &blocks)
        .with_keyword_index(&kidx)
        .with_live_set(&live);
    for k in [1, 3, 16] {
        let q = plateau_query(k);
        for s in SCHEDULERS {
            let want = search_plain(&whole, &q, s).unwrap();
            let ctl = RunControl::unbounded();
            let got = expansion_search(&view, &q, s, &ctl, &mut Recorder::disabled()).unwrap();
            assert_eq!(bits(&got), bits(&want), "k={k} {s:?}");
            let fates = view.fates();
            assert!(fates[0].walked && !fates[0].retired, "k={k} {s:?}");
            assert!(fates[1].retired, "k={k} {s:?}");
            assert!(
                got.metrics.visited_trajectories <= want.metrics.visited_trajectories,
                "k={k} {s:?}"
            );
        }
    }
}
