//! Chaos harness for the durable ingest path: randomized storage-fault
//! schedules must never lose an acknowledged-durable write.
//!
//! Each seed drives a [`DurableIngest`] over a [`FaultFs`] whose write,
//! sync, and metadata operations fail with seeded probabilities (torn
//! writes, ENOSPC, fsync page loss, transient errors), then materializes
//! a worst-case crash image — every file truncated to its durable prefix
//! plus a random cut of the unsynced tail — and recovers it. Two
//! invariants are checked for every seed:
//!
//! 1. **No acked-durable write is ever lost.** Every batch whose LSN the
//!    ingest reported durable before the crash must be present, content-
//!    identical, after recovery.
//! 2. **Recovery ≡ from-scratch rebuild.** The recovered state equals the
//!    base dataset plus exactly the replayed prefix of acked batches —
//!    structurally for every seed, and bit-identically under the query
//!    differential (expansion vs brute force over a compacted rebuild)
//!    for sampled seeds.
//!
//! The default sweep is 200 seeds; set `UOTS_CHAOS_ITERS` to widen it.
//! A meta-test flips the backend into `lie_on_fsync` mode (fsync drops
//! the pages but reports success) and asserts the harness *fails* — the
//! invariants are strong enough to catch an acked-write-lost bug.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use uots::core::algorithms::{Algorithm, BruteForce, Expansion};
use uots::core::wal::{self, FsyncPolicy, WalConfig};
use uots::durable::{recover, DurableIngest};
use uots::prelude::*;
use uots::storage::fault::{FaultConfig, FaultFs};
use uots::storage::RetryPolicy;
use uots::{
    EpochSnapshot, KeywordSet, LiveSet, Mutation, QueryResult, Sample, Trajectory, TrajectoryStore,
};
use uots_text::KeywordId;

fn tmproot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uots_chaos")
        .join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn iters() -> u64 {
    std::env::var("UOTS_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn random_traj(rng: &mut StdRng, n: usize, vocab_len: usize) -> Trajectory {
    let len = rng.gen_range(1..5);
    let t0 = rng.gen::<f64>() * 80_000.0;
    let samples: Vec<Sample> = (0..len)
        .map(|i| Sample {
            node: NodeId(rng.gen_range(0..n) as u32),
            time: (t0 + 30.0 * i as f64).min(86_400.0),
        })
        .collect();
    let tags: Vec<KeywordId> = (0..rng.gen_range(0..3))
        .map(|_| KeywordId(rng.gen_range(0..vocab_len.min(12)) as u32))
        .collect();
    Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid trajectory")
}

fn random_query(rng: &mut StdRng, n: usize, vocab_len: usize) -> UotsQuery {
    let m = rng.gen_range(1..3);
    let locations: Vec<NodeId> = (0..m).map(|_| NodeId(rng.gen_range(0..n) as u32)).collect();
    let kws: Vec<KeywordId> = (0..rng.gen_range(0..3))
        .map(|_| KeywordId(rng.gen_range(0..vocab_len.min(12)) as u32))
        .collect();
    UotsQuery::with_options(
        locations,
        KeywordSet::from_ids(kws),
        vec![],
        QueryOptions {
            weights: Weights::lambda(0.5).expect("valid lambda"),
            k: 4,
            ..Default::default()
        },
    )
    .expect("valid query")
}

/// Applies a batch to the oracle's plain (store, live) pair.
fn apply_expected(store: &mut TrajectoryStore, live: &mut LiveSet, batch: &[Mutation]) {
    for m in batch {
        match m {
            Mutation::Insert(t) => {
                store.push(t.clone());
                live.grow_to(store.len());
            }
            Mutation::Retire(id) => {
                live.retire(*id);
            }
        }
    }
}

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

/// Query differential: the recovered snapshot must answer bit-identically
/// to a from-scratch compacted rebuild of its own live subset.
fn check_query_differential(
    snapshot: &EpochSnapshot,
    vocab_len: usize,
    queries: &[UotsQuery],
) -> Result<(), String> {
    let net = snapshot.network();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(net.num_nodes());
    let kidx = compacted.build_keyword_index(vocab_len);
    let oracle_db = Database::new(net, &compacted, &vidx).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    for (q_i, q) in queries.iter().enumerate() {
        let want = fingerprint(
            &BruteForce
                .run(&oracle_db, q)
                .map_err(|e| format!("q{q_i}: oracle failed: {e}"))?,
        );
        let got = Expansion::default()
            .run(&live_db, q)
            .map_err(|e| format!("q{q_i}: recovered run failed: {e}"))?;
        let mapped: Result<Vec<_>, String> = fingerprint(&got)
            .into_iter()
            .map(|(id, s, sp, tx, tm)| {
                id_map[id.index()]
                    .map(|m| (m, s, sp, tx, tm))
                    .ok_or_else(|| format!("q{q_i}: recovered snapshot served retired {id}"))
            })
            .collect();
        if want != mapped? {
            return Err(format!("q{q_i}: recovered expansion diverged from rebuild"));
        }
    }
    Ok(())
}

struct SeedOutcome {
    /// Batches the ingest acknowledged (WAL append returned Ok).
    acked: usize,
    /// Highest LSN the ingest believed durable when the crash hit.
    durable_lsn: u64,
    /// Batches recovery actually reproduced.
    recovered: u64,
    /// Faults the schedule injected.
    faults: u64,
}

/// Drives one full chaos round: faulty ingest, crash image, recovery,
/// invariant checks. `Err` means an invariant was violated — for an
/// honest backend that is a bug; for the lying backend it is the point.
fn run_seed(
    ds: &Dataset,
    root: &Path,
    seed: u64,
    lie_on_fsync: bool,
    deep_check: bool,
) -> Result<Option<SeedOutcome>, String> {
    let dir = root.join(format!("seed-{seed}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    // fault intensity buckets: calm, rough, hostile
    let (p_write, p_sync, p_meta) = if lie_on_fsync {
        // the meta-test wants certain page loss, nothing else
        (0.0, 0.6, 0.0)
    } else {
        match seed % 3 {
            0 => (0.02, 0.02, 0.01),
            1 => (0.08, 0.08, 0.04),
            _ => (0.20, 0.20, 0.08),
        }
    };
    let fsync = if !lie_on_fsync && seed % 4 == 3 {
        FsyncPolicy::Never // acked ≠ durable: the crash may drop the tail
    } else {
        FsyncPolicy::EveryBatch
    };
    let checkpoint_every = if !lie_on_fsync && seed % 2 == 1 {
        Some(2)
    } else {
        None
    };

    let fs = FaultFs::random(FaultConfig {
        seed,
        p_write,
        p_sync,
        p_meta,
        lie_on_fsync,
    });
    // open is not retried internally, so give it the couple of attempts
    // an operator would; a schedule hostile enough to kill all of them
    // acked nothing, leaving nothing to verify
    let mut ingest = None;
    for _ in 0..3 {
        match DurableIngest::create_with_backend(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.clone(),
            &dir,
            WalConfig {
                fsync,
                ..WalConfig::default()
            },
            checkpoint_every,
            None,
            Arc::clone(&fs) as Arc<dyn uots::storage::StorageBackend>,
            RetryPolicy::without_backoff(),
            None,
        ) {
            Ok(i) => {
                ingest = Some(i);
                break;
            }
            Err(_) => continue,
        }
    }
    let Some(mut ingest) = ingest else {
        return Ok(None);
    };

    // scripted workload, generated just-in-time so retires only ever name
    // ids that exist in the acked prefix
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5000);
    let n = ds.network.num_nodes();
    let vocab_len = ds.vocab.len();
    let mut next_id = ds.store.len();
    let mut acked: Vec<(u64, Vec<Mutation>)> = Vec::new();
    for _ in 0..12 {
        let mut batch = Vec::new();
        let mut inserts = 0usize;
        for _ in 0..rng.gen_range(1..4) {
            if rng.gen_bool(0.7) {
                batch.push(Mutation::Insert(random_traj(&mut rng, n, vocab_len)));
                inserts += 1;
            } else {
                batch.push(Mutation::Retire(TrajectoryId(
                    rng.gen_range(0..next_id) as u32
                )));
            }
        }
        match ingest.apply(batch.clone()) {
            Ok((lsn, _)) => {
                // LSNs are consecutive from 1: a retried append reuses its
                // LSN, so acks can never skip or duplicate
                if lsn != acked.len() as u64 + 1 {
                    return Err(format!(
                        "seed {seed}: acked lsn {lsn} out of sequence (expected {})\nfaults:\n  {}",
                        acked.len() + 1,
                        fs.fault_log().join("\n  ")
                    ));
                }
                acked.push((lsn, batch));
                next_id += inserts;
            }
            // an unacked batch: whether it is durable is undefined, but
            // the applied state must not run ahead of the log — stop here
            Err(_) => break,
        }
        if rng.gen_bool(0.3) && ingest.publish().is_err() {
            break;
        }
        // only on checkpointing seeds: a checkpoint prunes covered WAL
        // segments, and the checkpoint-free seeds rely on the full log
        // surviving for the mutation-level content check below
        if checkpoint_every.is_some() && rng.gen_bool(0.15) {
            let _ = ingest.checkpoint_now();
        }
    }
    let status = ingest.status();
    let durable_lsn = status.durable_lsn;
    drop(ingest);

    // power loss: durable prefixes survive, a seeded cut of each unsynced
    // tail may or may not
    fs.crash(seed ^ 0x0dd0)
        .map_err(|e| format!("seed {seed}: crash materialization failed: {e}"))?;

    let recovered =
        recover(&dir, Some(ds), None).map_err(|e| format!("seed {seed}: recovery failed: {e}"))?;
    let m = recovered.report.next_lsn.saturating_sub(1);

    // invariant 1: everything acked as durable is still there
    if m < durable_lsn {
        return Err(format!(
            "seed {seed}: acked-durable write LOST — ingest reported lsn {durable_lsn} durable, \
             recovery reproduced only {m} batch(es)\nfaults:\n  {}",
            fs.fault_log().join("\n  ")
        ));
    }
    // ... and the log can never contain more than was acked
    if m as usize > acked.len() {
        return Err(format!(
            "seed {seed}: recovery replayed {m} batches but only {} were acked",
            acked.len()
        ));
    }

    // invariant 2: recovered state ≡ base + exactly the first m acked
    // batches. Without checkpoints the WAL is never pruned, so the log
    // itself must replay to the acked prefix, mutation-for-mutation.
    if checkpoint_every.is_none() {
        let replayed = wal::replay(&dir, 0)
            .map_err(|e| format!("seed {seed}: post-crash replay failed: {e}"))?;
        if replayed.batches.len() != m as usize {
            return Err(format!(
                "seed {seed}: replay length {} != recovery's {m}",
                replayed.batches.len()
            ));
        }
        for ((got_lsn, got), (want_lsn, want)) in replayed.batches.iter().zip(acked.iter()) {
            if got_lsn != want_lsn || got != want {
                return Err(format!(
                    "seed {seed}: durable batch diverged at lsn {want_lsn}: log has {got:?}, \
                     acked {want:?}"
                ));
            }
        }
    }
    let mut want_store = ds.store.clone();
    let mut want_live = LiveSet::all_live(want_store.len());
    for (_, batch) in &acked[..m as usize] {
        apply_expected(&mut want_store, &mut want_live, batch);
    }
    let snap = recovered.manager.snapshot();
    if snap.store().len() != want_store.len() {
        return Err(format!(
            "seed {seed}: recovered store has {} trajectories, expected {}",
            snap.store().len(),
            want_store.len()
        ));
    }
    for i in 0..want_store.len() {
        let id = TrajectoryId(i as u32);
        if snap.store().get(id) != want_store.get(id) {
            return Err(format!("seed {seed}: trajectory {id} content diverged"));
        }
    }
    if snap.live() != &want_live {
        return Err(format!(
            "seed {seed}: liveness mask diverged\n got {:?}\nwant {want_live:?}",
            snap.live()
        ));
    }
    if deep_check {
        let mut qrng = StdRng::seed_from_u64(seed ^ 0x9e3e);
        let queries: Vec<UotsQuery> = (0..2)
            .map(|_| random_query(&mut qrng, n, vocab_len))
            .collect();
        check_query_differential(&snap, vocab_len, &queries)
            .map_err(|e| format!("seed {seed}: {e}"))?;
    }

    let faults = fs.injected_faults();
    std::fs::remove_dir_all(&dir).ok();
    Ok(Some(SeedOutcome {
        acked: acked.len(),
        durable_lsn,
        recovered: m,
        faults,
    }))
}

/// The main sweep: `UOTS_CHAOS_ITERS` (default 200) randomized fault
/// schedules, every one recovered and checked against both invariants.
#[test]
fn chaos_no_acked_durable_write_is_ever_lost() {
    let root = tmproot("sweep");
    let ds = Dataset::build(&DatasetConfig::small(16, 5)).expect("dataset builds");
    let n = iters();
    let (mut ran, mut skipped, mut total_faults, mut total_acked, mut faulted_rounds) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for seed in 0..n {
        match run_seed(&ds, &root, seed, false, seed % 8 == 0) {
            Ok(Some(o)) => {
                ran += 1;
                total_faults += o.faults;
                total_acked += o.acked as u64;
                if o.faults > 0 && o.acked > 0 {
                    faulted_rounds += 1;
                }
                assert!(
                    o.recovered >= o.durable_lsn,
                    "seed {seed}: internal accounting broke"
                );
            }
            Ok(None) => skipped += 1,
            Err(e) => panic!("chaos invariant violated:\n{e}"),
        }
    }
    eprintln!(
        "chaos sweep: {ran} rounds ({skipped} skipped at open), {total_acked} acked batches, \
         {total_faults} faults injected, {faulted_rounds} rounds faulted with acked writes"
    );
    // the sweep must actually exercise the machinery, not vacuously pass
    assert!(ran >= n / 2, "too many rounds skipped: {skipped}/{n}");
    assert!(total_faults > 0, "no faults injected — schedule is broken");
    assert!(
        faulted_rounds > 0,
        "no round combined faults with acked writes"
    );
}

/// Meta-test: a backend that *lies about fsync* (drops the pages, reports
/// success) must be caught by the same harness — proof the invariants
/// detect acked-write loss rather than vacuously passing.
#[test]
fn a_lying_fsync_backend_is_caught() {
    let root = tmproot("liar");
    let ds = Dataset::build(&DatasetConfig::small(16, 5)).expect("dataset builds");
    let mut caught = 0u64;
    for seed in 0..40 {
        match run_seed(&ds, &root, seed, true, false) {
            Err(e) if e.contains("LOST") => caught += 1,
            // a lying round can also surface as divergence downstream of
            // the loss (holes in the log, shifted prefixes) — any failure
            // is a detection; what must not happen is *silent* success
            // on every seed
            Err(_) => caught += 1,
            Ok(_) => {}
        }
    }
    assert!(
        caught > 0,
        "the chaos harness failed to detect a backend that drops acked writes"
    );
}
