//! Differential proof that the adaptive planner never changes results:
//! for every query shape the planner can route — single-source, rare-
//! keyword text-dominated, full-drain (high m × ubiquitous keywords),
//! and the default expansion path — the planner-selected algorithm must
//! return results **bit-identical** to every forced algorithm and to the
//! brute-force oracle.
//!
//! This is the service-facing counterpart of `tests/differential.rs`:
//! that harness proves the four algorithms agree with each other; this
//! one proves the *dispatch layer* on top of them is invisible in the
//! answers, and that the full-drain planner route (which sends high-m /
//! low-selectivity queries to the multi-source shared-frontier drain via
//! the layout-equipped oracle) is covered by real queries.

use uots::core::planner::{AlgorithmKind, Planner};
use uots::prelude::*;
use uots::{
    workload, Dataset, DatasetConfig, KeywordSet, LayoutTables, QueryOptions, QueryResult,
    TrajectoryStore, UotsQuery,
};
use uots_core::algorithms::Algorithm;
use uots_network::generators::{grid_city, GridCityConfig};
use uots_network::NodeId;
use uots_text::KeywordId;
use uots_trajectory::{Sample, Trajectory};

/// Bit-exact result fingerprint: ids in order, every channel's mantissa.
fn fingerprint(r: &QueryResult) -> Vec<(TrajectoryId, u64, u64, u64, u64)> {
    r.matches
        .iter()
        .map(|m| {
            (
                m.id,
                m.similarity.to_bits(),
                m.spatial.to_bits(),
                m.textual.to_bits(),
                m.temporal.to_bits(),
            )
        })
        .collect()
}

/// A store with controlled selectivity over a grid city: keyword 0 tags
/// every trajectory (selectivity 1.0 — ubiquitous), keyword 1 tags only
/// trajectory 0 (rare), keywords 2..6 tag arithmetic subsets. Large
/// enough (300 live) to clear the planner's tiny-dataset oracle rule.
struct Fixture {
    net: uots::RoadNetwork,
    store: TrajectoryStore,
}

fn fixture() -> Fixture {
    let net = grid_city(&GridCityConfig::tiny(22)).unwrap();
    let n = net.num_nodes() as u32;
    let mut store = TrajectoryStore::new();
    for i in 0..300u32 {
        let mut kws = vec![KeywordId(0)];
        if i == 0 {
            kws.push(KeywordId(1));
        }
        for k in 2..7u32 {
            if i % k == 0 {
                kws.push(KeywordId(k));
            }
        }
        let samples = vec![
            Sample {
                node: NodeId(i % n),
                time: f64::from(i % 200) * 60.0,
            },
            Sample {
                node: NodeId((i * 7 + 13) % n),
                time: f64::from(i % 200) * 60.0 + 600.0,
            },
        ];
        store.push(Trajectory::new(samples, KeywordSet::from_ids(kws)).expect("valid trajectory"));
    }
    Fixture { net, store }
}

/// Query shapes spanning every planner branch. Returns (label, query).
fn shaped_queries(net: &uots::RoadNetwork) -> Vec<(&'static str, UotsQuery)> {
    let n = net.num_nodes() as u32;
    let loc = |i: u32| NodeId(i % n);
    let locs = |m: u32| (0..m).map(|i| loc(i * 37 + 5)).collect::<Vec<_>>();
    let q = |locations: Vec<NodeId>, kws: Vec<u32>, lambda: f64, k: usize| {
        UotsQuery::with_options(
            locations,
            KeywordSet::from_ids(kws.into_iter().map(KeywordId)),
            Vec::new(),
            QueryOptions {
                weights: Weights::lambda(lambda).unwrap(),
                k,
                ..QueryOptions::default()
            },
        )
        .expect("valid query")
    };
    vec![
        // m = 1 → single-source baseline route.
        ("single-source", q(locs(1), vec![2, 3], 0.5, 3)),
        // rare keyword, text-dominated λ, one tree to drain (484 settles
        // for 300 live) → text-first route.
        ("rare-text", q(locs(1), vec![1], 0.1, 3)),
        // same, but three trees: the drain gate sends it to expansion.
        ("rare-text-big-drain", q(locs(3), vec![1], 0.1, 3)),
        // high m × ubiquitous keyword → the full-drain route
        // (multi-source shared-frontier drain, satellite 3).
        ("full-drain", q(locs(10), vec![0], 0.5, 5)),
        ("full-drain-k1", q(locs(12), vec![0, 2], 0.7, 1)),
        // the default expansion path.
        ("default", q(locs(3), vec![2, 5], 0.5, 3)),
        ("lambda-1", q(locs(4), vec![3], 1.0, 4)),
    ]
}

#[test]
fn planner_routes_cover_every_branch_and_match_all_forced_algorithms() {
    let fx = fixture();
    let vertex_index = fx.store.build_vertex_index(fx.net.num_nodes());
    let keyword_index = fx.store.build_keyword_index(8);
    let layout = LayoutTables::build(&fx.net, &fx.store, 8);
    let db = Database::new(&fx.net, &fx.store, &vertex_index)
        .with_keyword_index(&keyword_index)
        .with_layout(&layout);

    let planner = Planner::new();
    let mut reasons = std::collections::BTreeSet::new();
    for (label, q) in shaped_queries(&fx.net) {
        let decision = planner.decide(&db, &q);
        reasons.insert(decision.reason);
        // the drain gate is the only thing separating these two shapes
        match label {
            "rare-text" => assert_eq!(decision.kind, AlgorithmKind::TextFirst),
            "rare-text-big-drain" => assert_eq!(decision.kind, AlgorithmKind::Expansion),
            _ => {}
        }
        let planned = planner.run(&db, &q).expect("planner run");
        let want = fingerprint(&planned);
        assert!(!want.is_empty(), "{label}: no matches at all");
        for kind in AlgorithmKind::ALL {
            let forced = Planner::forced(kind).run(&db, &q).expect("forced run");
            assert_eq!(
                want,
                fingerprint(&forced),
                "{label}: planner ({}) vs forced {kind} diverged",
                decision.kind
            );
        }
    }
    // The workload above must actually exercise the routing table, not
    // collapse into one branch.
    for expect in [
        "single-source",
        "rare-keywords-text-dominated",
        "full-drain-shape",
        "default-expansion",
    ] {
        assert!(
            reasons.contains(expect),
            "no query hit the `{expect}` planner branch (hit: {reasons:?})"
        );
    }
}

#[test]
fn planner_matches_forced_on_a_generated_workload() {
    let ds = Dataset::build(&DatasetConfig::small(220, 41)).expect("dataset");
    let db = uots::db(&ds);
    let planner = Planner::new();
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 24,
            ..Default::default()
        },
    );
    let mut cases = 0;
    for (i, spec) in specs.into_iter().enumerate() {
        let q = UotsQuery::with_options(
            spec.locations,
            spec.keywords,
            Vec::new(),
            QueryOptions {
                k: 1 + i % 5,
                ..QueryOptions::default()
            },
        )
        .expect("valid query");
        let want = fingerprint(&planner.run(&db, &q).expect("planner run"));
        for kind in AlgorithmKind::ALL {
            let forced = Planner::forced(kind).run(&db, &q).expect("forced run");
            assert_eq!(
                want,
                fingerprint(&forced),
                "q{i}: planner vs forced {kind} diverged"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 24 * 4);
}
