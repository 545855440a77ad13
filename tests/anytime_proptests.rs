//! Property tests for the anytime-execution contract:
//!
//! * **Soundness of the certificate** — for every algorithm and every
//!   budget level, the returned `bound_gap` really bounds what was missed:
//!   `oracle[i].sim ≤ returned[i].sim + bound_gap` at every rank `i`
//!   (missing ranks count as similarity 0).
//! * **No invented answers** — budgeted results carry *exact* similarities
//!   of real trajectories and never beat the oracle at any rank.
//! * **Exact means exact** — a result tagged `Exact` is identical to the
//!   unbudgeted ranking.
//! * **Pre-cancelled runs** — a token cancelled before the first expansion
//!   step yields an empty best-effort result with `bound_gap = 1` for all
//!   four algorithms, never an error.

use proptest::prelude::*;
use uots::prelude::*;
use uots::{CancellationToken, ExecutionBudget, Recorder, RunControl};

const EPS: f64 = 1e-9;

fn algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(Expansion::default()),
        Box::new(Expansion::new(Scheduler::RoundRobin)),
        Box::new(IknnBaseline {
            settles_per_round: 7,
        }),
        Box::new(TextFirst),
        Box::new(BruteForce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn budgeted_answers_are_certified_sound(
        seed in 0u64..1_000,
        lambda in 0.0f64..=1.0,
        k in 1usize..5,
    ) {
        let ds = Dataset::build(&DatasetConfig::small(25, seed)).unwrap();
        let db = uots::db(&ds);
        let spec = &workload::generate(&ds, &workload::WorkloadConfig {
            num_queries: 1,
            seed: seed ^ 0x77,
            ..Default::default()
        })[0];
        let opts = QueryOptions {
            weights: Weights::lambda(lambda).unwrap(),
            k,
            ..Default::default()
        };
        let q = UotsQuery::with_options(
            spec.locations.clone(),
            spec.keywords.clone(),
            vec![],
            opts.clone(),
        )
        .unwrap();

        // full exact ranking: every trajectory's similarity
        let full = UotsQuery::with_options(
            spec.locations.clone(),
            spec.keywords.clone(),
            vec![],
            QueryOptions { k: ds.store.len(), ..opts.clone() },
        )
        .unwrap();
        let oracle = BruteForce.run(&db, &full).unwrap();
        let exact_sim: std::collections::HashMap<TrajectoryId, f64> =
            oracle.matches.iter().map(|m| (m.id, m.similarity)).collect();
        let oracle_topk: Vec<_> = oracle.matches.iter().take(k).collect();

        for algo in algorithms() {
            for max_settled in [0usize, 1, 4, 16, 64, 256, 4096, usize::MAX / 2] {
                let budget = ExecutionBudget::default().with_max_settled(max_settled);
                let bq = q.reoptioned(QueryOptions { budget, ..opts.clone() }).unwrap();
                let r = algo.run(&db, &bq).unwrap();
                let gap = r.completeness.bound_gap();

                prop_assert!(r.is_ranked(), "{}: ranked", algo.name());
                prop_assert!((0.0..=1.0).contains(&gap), "{}: gap {gap}", algo.name());
                prop_assert!(r.matches.len() <= k);

                // returned similarities are exact values of real trajectories
                for m in &r.matches {
                    let e = exact_sim.get(&m.id).copied().expect("real trajectory");
                    prop_assert!(
                        (m.similarity - e).abs() < EPS,
                        "{}: sim of {} is {} but exact is {e}",
                        algo.name(), m.id, m.similarity
                    );
                }

                // per-rank soundness: the certificate covers everything missed
                for (i, o) in oracle_topk.iter().enumerate() {
                    let returned = r.matches.get(i).map_or(0.0, |m| m.similarity);
                    prop_assert!(
                        o.similarity <= returned + gap + EPS,
                        "{} (budget {max_settled}): rank {i} oracle {} > returned {returned} + gap {gap}",
                        algo.name(), o.similarity
                    );
                    // and the budgeted run never beats the oracle
                    prop_assert!(returned <= o.similarity + EPS);
                }

                // a result claiming exactness must equal the oracle ranking
                if r.completeness.is_exact() {
                    let oracle_ids: Vec<_> = oracle_topk.iter().map(|m| m.id).collect();
                    prop_assert_eq!(
                        r.ids(), oracle_ids,
                        "{} (budget {}): Exact must match the oracle", algo.name(), max_settled
                    );
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_is_always_exact(seed in 0u64..1_000) {
        let ds = Dataset::build(&DatasetConfig::small(20, seed)).unwrap();
        let db = uots::db(&ds);
        let spec = &workload::generate(&ds, &workload::WorkloadConfig {
            num_queries: 1,
            seed,
            ..Default::default()
        })[0];
        let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
        for algo in algorithms() {
            let r = algo.run(&db, &q).unwrap();
            prop_assert!(
                r.completeness.is_exact(),
                "{}: unlimited budget must be exact", algo.name()
            );
            prop_assert_eq!(r.completeness.bound_gap(), 0.0);
        }
    }
}

#[test]
fn pre_cancelled_token_yields_empty_best_effort_for_every_algorithm() {
    let ds = Dataset::build(&DatasetConfig::small(15, 42)).unwrap();
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
    for algo in algorithms() {
        let token = CancellationToken::new();
        token.cancel();
        let ctl = RunControl::with_token(token);
        let r = algo
            .run_recorded(&db, &q, &ctl, &mut Recorder::disabled())
            .unwrap_or_else(|e| panic!("{}: cancellation must not error: {e}", algo.name()));
        assert!(r.matches.is_empty(), "{}: no matches", algo.name());
        assert!(
            !r.completeness.is_exact(),
            "{}: must be best-effort",
            algo.name()
        );
        assert_eq!(
            r.completeness.bound_gap(),
            1.0,
            "{}: nothing is certified",
            algo.name()
        );
        assert_eq!(r.metrics.interrupted, 1, "{}", algo.name());
    }
}

#[test]
fn zero_wall_budget_interrupts_but_stays_sound() {
    let ds = Dataset::build(&DatasetConfig::small(30, 7)).unwrap();
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::with_options(
        spec.locations.clone(),
        spec.keywords.clone(),
        vec![],
        QueryOptions {
            budget: ExecutionBudget::default().with_deadline_ms(0),
            ..Default::default()
        },
    )
    .unwrap();
    for algo in algorithms() {
        let r = algo.run(&db, &q).unwrap();
        // a 0 ms deadline may let a few CHECK_INTERVAL steps through, but
        // the certificate must still be a valid [0, 1] gap
        let gap = r.completeness.bound_gap();
        assert!((0.0..=1.0).contains(&gap), "{}: gap {gap}", algo.name());
        assert!(r.is_ranked(), "{}", algo.name());
    }
}

/// A settle budget that cuts the full drain of `BruteForce` and
/// `TextFirst` interrupts them alike over the dataset's own database and
/// over a published snapshot's: same answers, same certificate, at every
/// cut — before the drain, inside the first source, one settle into the
/// last source, one settle short of the end and at the end. Both sides
/// charge the budget per settle, so neither overruns it.
#[test]
fn drain_budget_cuts_agree_between_a_database_and_a_snapshot() {
    let ds = Dataset::build(&DatasetConfig::small(30, 19)).unwrap();
    let manager = uots::EpochManager::new(
        std::sync::Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
    );
    let snapshot = manager.snapshot();
    let (plain, served) = (uots::db(&ds), snapshot.database());
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 3,
            seed: 0x5e,
            ..Default::default()
        },
    );
    for spec in &specs {
        let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
        let m = q.num_locations();
        // N: the component size; the small preset is one component, so
        // the whole drain settles m·N
        let n = ds.network.num_nodes();
        let full = BruteForce.run(&served, &q).unwrap();
        assert_eq!(full.metrics.settled_vertices, m * n);
        for max_settled in [0, n / 2, (m - 1) * n + 1, m * n - 1, m * n] {
            let opts = QueryOptions {
                budget: ExecutionBudget::default().with_max_settled(max_settled),
                ..q.options().clone()
            };
            let bq = q.reoptioned(opts).unwrap();
            for algo in [&BruteForce as &dyn Algorithm, &TextFirst] {
                let a = algo.run(&plain, &bq).unwrap();
                let b = algo.run(&served, &bq).unwrap();
                let at = format!("{} at max_settled {max_settled}", algo.name());
                assert_eq!(a.matches, b.matches, "{at}");
                assert_eq!(a.completeness, b.completeness, "{at}");
                assert!(a.metrics.settled_vertices <= max_settled, "{at}");
                assert!(b.metrics.settled_vertices <= max_settled, "{at}");
            }
        }
    }
}
