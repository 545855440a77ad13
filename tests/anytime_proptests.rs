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
//! * **Poison-on-cancel** — an interrupted run never publishes its partial
//!   expansion state to a shared [`DistanceCache`], and a cache warmed
//!   before an interruption keeps serving bit-exact results after it.

use proptest::prelude::*;
use std::sync::Arc;
use uots::prelude::*;
use uots::{
    CancellationToken, DistanceCache, ExecutionBudget, Recorder, RunControl, SearchContext,
};

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
fn interrupted_runs_poison_the_shared_cache_instead_of_publishing() {
    let ds = Dataset::build(&DatasetConfig::small(25, 11)).unwrap();
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::with_options(
        spec.locations.clone(),
        spec.keywords.clone(),
        vec![],
        QueryOptions {
            budget: ExecutionBudget::default().with_max_settled(2),
            ..Default::default()
        },
    )
    .unwrap();
    for algo in algorithms() {
        // a fresh cache per algorithm: any entry must come from *this* run
        let cache = Arc::new(DistanceCache::new(1 << 16));
        let ctx = SearchContext::with_cache(Arc::clone(&cache));
        let r = algo
            .run_ctx(
                &db,
                &q,
                &RunControl::unbounded(),
                &mut Recorder::disabled(),
                &ctx,
            )
            .unwrap();
        if r.completeness.is_exact() {
            continue; // nothing was missed, so publishing is legitimate
        }
        let stats = cache.stats();
        assert_eq!(
            stats.inserts,
            0,
            "{}: an interrupted run must not publish",
            algo.name()
        );
        assert!(cache.is_empty(), "{}: cache must stay empty", algo.name());
        if r.metrics.settled_vertices > 0 {
            assert!(
                stats.poisoned >= 1,
                "{}: fresh settles were discarded, the skip must be counted",
                algo.name()
            );
        }
    }
}

#[test]
fn warm_cache_survives_a_cancelled_run_bit_exactly() {
    let ds = Dataset::build(&DatasetConfig::small(25, 13)).unwrap();
    let db = uots::db(&ds);
    let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
    let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
    let cache = Arc::new(DistanceCache::new(1 << 16));
    let ctx = SearchContext::with_cache(Arc::clone(&cache));
    let algo = Expansion::default();

    let unbounded = || {
        let (ctl, mut rec) = (RunControl::unbounded(), Recorder::disabled());
        algo.run_ctx(&db, &q, &ctl, &mut rec, &ctx).unwrap()
    };
    let clean = unbounded();
    let published = cache.stats().inserts;
    assert!(published > 0, "clean completion must publish");

    // a mid-run cancellation on the warm cache: replays, then poisons
    let token = CancellationToken::new();
    token.cancel();
    let r = algo
        .run_ctx(
            &db,
            &q,
            &RunControl::with_token(token),
            &mut Recorder::disabled(),
            &ctx,
        )
        .unwrap();
    assert!(!r.completeness.is_exact());
    assert_eq!(
        cache.stats().inserts,
        published,
        "a cancelled run must not publish"
    );

    // the warm entries still serve the exact answer, bit for bit
    let again = unbounded();
    assert_eq!(clean.ids(), again.ids());
    for (a, b) in clean.matches.iter().zip(again.matches.iter()) {
        assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
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
