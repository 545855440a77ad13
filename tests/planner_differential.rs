//! Differential proof that the algorithm dispatch never changes results:
//! every [`AlgorithmKind`], run through its own `Algorithm` impl (the
//! dispatch the service uses), returns answers **bit-identical** to the
//! brute-force oracle — over a fixture with controlled keyword
//! selectivity, on seven query shapes from single-source to full-drain
//! (high m × ubiquitous keywords), and on a generated workload.
//!
//! This is the service-facing counterpart of `tests/differential.rs`:
//! that harness proves the algorithms agree with each other when
//! constructed directly; this one proves the name → algorithm table the
//! service dispatches through is invisible in the answers.

use uots::core::planner::AlgorithmKind;
use uots::prelude::*;
use uots::{
    workload, Dataset, DatasetConfig, KeywordSet, QueryOptions, QueryResult, TrajectoryStore,
    UotsQuery,
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
/// trajectory 0 (rare), keywords 2..6 tag arithmetic subsets; 300 live.
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

/// Query shapes spanning the selectivity, λ and m extremes. Returns
/// (label, query).
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
        // one source: nothing to schedule
        ("single-source", q(locs(1), vec![2, 3], 0.5, 3)),
        // a rare keyword under a text-dominated λ, one and three sources
        ("rare-text", q(locs(1), vec![1], 0.1, 3)),
        ("rare-text-big-drain", q(locs(3), vec![1], 0.1, 3)),
        // many sources × a ubiquitous keyword: bounds prune nothing
        ("full-drain", q(locs(10), vec![0], 0.5, 5)),
        ("full-drain-k1", q(locs(12), vec![0, 2], 0.7, 1)),
        // moderate shapes
        ("default", q(locs(3), vec![2, 5], 0.5, 3)),
        ("lambda-1", q(locs(4), vec![3], 1.0, 4)),
    ]
}

/// Every kind against the oracle on one query; returns the comparisons.
fn assert_every_kind_matches_brute_force(db: &Database<'_>, q: &UotsQuery, label: &str) -> usize {
    let want = fingerprint(&BruteForce.run(db, q).expect("oracle run"));
    assert!(!want.is_empty(), "{label}: no matches at all");
    for kind in AlgorithmKind::ALL {
        let got = kind.run(db, q).expect("dispatched run");
        assert_eq!(
            want,
            fingerprint(&got),
            "{label}: {kind} diverged from brute force"
        );
    }
    AlgorithmKind::ALL.len()
}

/// The seven shapes over the controlled-selectivity fixture. The name
/// dates from when a planner routed these shapes to different kinds; with
/// one served kind, the check is that every kind the service can run by
/// name agrees with the oracle on each shape.
#[test]
fn planner_routes_cover_every_branch_and_match_all_forced_algorithms() {
    let fx = fixture();
    let vertex_index = fx.store.build_vertex_index(fx.net.num_nodes());
    let keyword_index = fx.store.build_keyword_index(8);
    let kb = fx.store.build_keyword_blocks();
    let db =
        Database::new(&fx.net, &fx.store, &vertex_index, &kb).with_keyword_index(&keyword_index);
    let mut cases = 0;
    for (label, q) in shaped_queries(&fx.net) {
        cases += assert_every_kind_matches_brute_force(&db, &q, label);
    }
    assert_eq!(cases, 7 * 4);
}

/// A generated workload: the served default and every kind that can be
/// forced by name return the oracle's bits.
#[test]
fn planner_matches_forced_on_a_generated_workload() {
    let ds = Dataset::build(&DatasetConfig::small(220, 41)).expect("dataset");
    let db = uots::db(&ds);
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
        cases += assert_every_kind_matches_brute_force(&db, &q, &format!("q{i}"));
    }
    assert_eq!(cases, 24 * 4);
}
