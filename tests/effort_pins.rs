//! Answer and effort pins for every algorithm over the three read paths:
//! a plain [`Database`] over the dataset's own indexes, an epoch
//! snapshot's database (indexes the epoch built over its live set, plus
//! the liveness mask) and a 2-shard cluster cut (one run over both shards,
//! walking the cut's one vertex index). All three run the one
//! evaluation: the keyword bit table and the batched multi-source drain,
//! and all three do the same work.
//!
//! Each row pins an FNV-1a-64 of the `(id, similarity bits)` lists of a
//! fixed 12-query workload plus the summed effort counters. A refactor of
//! the expansion machinery must move none of them: the answers are
//! bit-exact and the work is the same work, vertex for vertex.

use std::sync::Arc;
use uots::core::{AlgorithmKind, ClusterSnapshot, EpochManager, Partitioner, ShardedCluster};
use uots::join::{ts_join_with, JoinConfig};
use uots::prelude::*;
use uots::workload::WorkloadConfig;

/// FNV-1a-64 state fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Answer hash, then the summed visited trajectories, candidates, settled
/// vertices and heap pushes of one algorithm over one read path.
type Tally = (u64, usize, usize, usize, usize);

fn tally(results: &[QueryResult]) -> Tally {
    let mut h = Fnv::new();
    let mut t: Tally = (0, 0, 0, 0, 0);
    for r in results {
        h.feed(&(r.matches.len() as u64).to_le_bytes());
        for m in &r.matches {
            h.feed(&m.id.0.to_le_bytes());
            h.feed(&m.similarity.to_bits().to_le_bytes());
        }
        t.1 += r.metrics.visited_trajectories;
        t.2 += r.metrics.candidates;
        t.3 += r.metrics.settled_vertices;
        t.4 += r.metrics.heap_pushes;
    }
    t.0 = h.0;
    t
}

fn dataset() -> Dataset {
    Dataset::build(&DatasetConfig::small(60, 7)).unwrap()
}

/// Twelve queries cycling through k ∈ {1, 2, 3, 5} and λ ∈ {0.2, 0.5, 0.8}.
fn queries(ds: &Dataset) -> Vec<UotsQuery> {
    let cfg = WorkloadConfig {
        num_queries: 12,
        locations_per_query: 3,
        keywords_per_query: 2,
        seed: 0x5eed,
        ..WorkloadConfig::default()
    };
    workload::generate(ds, &cfg)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let options = QueryOptions {
                weights: Weights::lambda([0.2, 0.5, 0.8][i % 3]).unwrap(),
                k: [1, 2, 3, 5][i % 4],
                ..QueryOptions::default()
            };
            UotsQuery::with_options(spec.locations, spec.keywords, Vec::new(), options).unwrap()
        })
        .collect()
}

/// The three read paths a query can take.
struct Paths<'a> {
    ds: &'a Dataset,
    manager: EpochManager,
    cut: ClusterSnapshot,
    queries: Vec<UotsQuery>,
}

impl Paths<'_> {
    /// `alg` over the plain database, the epoch snapshot and the cut.
    fn run<A: Algorithm + Sync>(&self, alg: &A) -> [Tally; 3] {
        let snap = self.manager.snapshot();
        let run = |db: &Database<'_>| -> Vec<QueryResult> {
            self.queries
                .iter()
                .map(|q| alg.run(db, q).unwrap())
                .collect()
        };
        let sharded: Vec<QueryResult> = (self.queries.iter())
            .map(|q| self.cut.search(alg, q).unwrap().result)
            .collect();
        [
            tally(&run(&uots::db(self.ds))),
            tally(&run(&snap.database())),
            tally(&sharded),
        ]
    }
}

/// Every algorithm returns the same answers, so one hash covers them all.
const ANSWERS: u64 = 0x865a_f68f_16f2_9f30;

#[test]
fn answers_and_effort_are_pinned() {
    let ds = dataset();
    let net = Arc::new(ds.network.clone());
    let paths = Paths {
        ds: &ds,
        manager: EpochManager::new(Arc::clone(&net), ds.store.clone(), ds.vocab.len()),
        cut: ShardedCluster::new(net, &ds.store, ds.vocab.len(), 2, Partitioner::Hash).snapshot(),
        queries: queries(&ds),
    };
    let same = |v, c, s, h| [(ANSWERS, v, c, s, h); 3];
    let rows = [
        (
            "brute-force",
            paths.run(&BruteForce),
            same(720, 720, 32400, 720),
        ),
        (
            "text-first",
            paths.run(&TextFirst),
            same(559, 559, 32400, 559),
        ),
        (
            "iknn",
            paths.run(&IknnBaseline::default()),
            same(675, 648, 25824, 648),
        ),
        (
            "expansion/heuristic",
            paths.run(&Expansion::default()),
            same(574, 165, 8453, 955),
        ),
        (
            "expansion/round-robin",
            paths.run(&Expansion::new(Scheduler::RoundRobin)),
            same(578, 194, 11228, 877),
        ),
        (
            "expansion/min-radius",
            paths.run(&Expansion::new(Scheduler::MinRadius)),
            same(585, 186, 12304, 894),
        ),
        (
            "served default",
            paths.run(&AlgorithmKind::Expansion),
            same(574, 165, 8453, 955),
        ),
    ];
    let names = ["database", "epoch snapshot", "2-shard cut"];
    let mut moved = Vec::new();
    for (alg, got, want) in rows {
        for ((path, g), w) in names.iter().zip(got).zip(want) {
            if g != w {
                moved.push(format!("{alg} over the {path}: {g:x?}, pinned {w:x?}"));
            }
        }
    }
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

#[test]
fn join_over_a_two_shard_cut_is_pinned() {
    let ds = dataset();
    let net = Arc::new(ds.network.clone());
    let cut = ShardedCluster::new(net, &ds.store, ds.vocab.len(), 2, Partitioner::Hash).snapshot();
    let cfg = JoinConfig {
        theta: 0.8,
        ..JoinConfig::default()
    };
    let (budget, ctl) = (&ExecutionBudget::UNLIMITED, &RunControl::unbounded());
    let r = ts_join_with(&cut.view(), &cfg, 2, budget, ctl).unwrap();
    let mut h = Fnv::new();
    for p in &r.pairs {
        h.feed(&p.a.0.to_le_bytes());
        h.feed(&p.b.0.to_le_bytes());
        h.feed(&p.similarity.to_bits().to_le_bytes());
    }
    let got = (
        h.0,
        r.pairs.len(),
        r.visited_trajectories,
        r.settled_vertices,
        r.scanned_timestamps,
        r.candidates,
    );
    assert_eq!(
        got,
        (0xa7b4_4886_e8db_4d4a, 1, 2191, 36028, 35743, 91),
        "{:#018x}",
        got.0
    );
}
