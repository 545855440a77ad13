//! Crash-recovery differential suite for the durability layer.
//!
//! The property under test: **recovery rebuilds exactly the durable
//! prefix**. For a WAL cut at *any* byte — every record boundary, torn
//! mid-record writes, flipped bits — [`recover`] must produce an
//! [`EpochManager`] whose snapshot answers queries bit-identically to a
//! from-scratch rebuild of the mutations that were durable before the
//! cut, for all four algorithms plus the brute-force oracle. Checkpoints
//! only shorten replay; they must never change answers, and corrupt
//! checkpoints must fall back (older checkpoint, then base dataset)
//! rather than fail.
//!
//! Seeds are fixed: CI reproduces these exact crash points.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use uots::core::testing::corrupt;
use uots::core::wal::{self, FsyncPolicy, WalConfig, WalWriter};
use uots::datagen::persist::{self, Checkpoint};
use uots::durable::{recover, DurableError, DurableIngest, RecoverySource};
use uots::prelude::*;
use uots::scrub;
use uots::storage::{RetryPolicy, StdFs, StorageBackend};
use uots::{
    EpochSnapshot, KeywordSet, LiveSet, Mutation, QueryResult, Sample, Trajectory, TrajectoryStore,
};
use uots_core::algorithms::{BruteForce, Expansion, IknnBaseline, TextFirst};
use uots_text::KeywordId;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uots_wal_recovery")
        .join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bit-exact result fingerprint (ids + every similarity channel).
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

fn lineup() -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        ("expansion", Box::new(Expansion::default())),
        (
            "expansion-rr",
            Box::new(Expansion::new(Scheduler::RoundRobin)),
        ),
        (
            "iknn-baseline",
            Box::new(IknnBaseline {
                settles_per_round: 5,
            }),
        ),
        ("text-first", Box::new(TextFirst)),
    ]
}

fn random_traj(rng: &mut StdRng, n: usize, vocab_len: usize) -> Trajectory {
    let len = rng.gen_range(1..6);
    let t0 = rng.gen::<f64>() * 80_000.0;
    let samples: Vec<Sample> = (0..len)
        .map(|i| Sample {
            node: NodeId(rng.gen_range(0..n) as u32),
            time: (t0 + 30.0 * i as f64).min(86_400.0),
        })
        .collect();
    let tags: Vec<KeywordId> = (0..rng.gen_range(0..4))
        .map(|_| KeywordId(rng.gen_range(0..vocab_len.min(12)) as u32))
        .collect();
    Trajectory::new(samples, KeywordSet::from_ids(tags)).expect("valid trajectory")
}

fn random_query(rng: &mut StdRng, n: usize, vocab_len: usize) -> UotsQuery {
    let m = rng.gen_range(1..4);
    let locations: Vec<NodeId> = (0..m).map(|_| NodeId(rng.gen_range(0..n) as u32)).collect();
    let kws: Vec<KeywordId> = (0..rng.gen_range(0..4))
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

/// The scripted workload: `batches` mutation batches over `ds`, with
/// retires always referencing ids that exist in every prefix containing
/// them (ids only grow, so prefix-consistency holds by construction).
fn scripted_batches(ds: &Dataset, batches: usize, seed: u64) -> Vec<Vec<Mutation>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ds.network.num_nodes();
    let vocab_len = ds.vocab.len();
    let mut next_id = ds.store.len();
    let mut out = Vec::new();
    for _ in 0..batches {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            if rng.gen_bool(0.7) {
                batch.push(Mutation::Insert(random_traj(&mut rng, n, vocab_len)));
                next_id += 1;
            } else {
                batch.push(Mutation::Retire(TrajectoryId(
                    rng.gen_range(0..next_id) as u32
                )));
            }
        }
        out.push(batch);
    }
    out
}

/// Applies a batch to a plain (store, live) pair — the oracle's notion of
/// what one WAL record means.
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

/// The from-scratch oracle for a durable prefix of `m` batches: base
/// dataset + the first `m` batches applied to plain state.
fn expected_state(ds: &Dataset, batches: &[Vec<Mutation>], m: usize) -> (TrajectoryStore, LiveSet) {
    let mut store = ds.store.clone();
    let mut live = LiveSet::all_live(store.len());
    for batch in &batches[..m] {
        apply_expected(&mut store, &mut live, batch);
    }
    (store, live)
}

/// Asserts `snapshot` answers every query bit-identically to a
/// from-scratch compacted rebuild of its own live subset — the same
/// oracle the live-ingest differential uses, here applied to a
/// *recovered* snapshot.
fn assert_matches_rebuild(
    snapshot: &EpochSnapshot,
    vocab_len: usize,
    queries: &[UotsQuery],
    label: &str,
) {
    let net = snapshot.network();
    let (compacted, id_map) = snapshot.rebuild_compacted();
    let vidx = compacted.build_vertex_index(net.num_nodes());
    let kidx = compacted.build_keyword_index(vocab_len);
    let kb = compacted.build_keyword_blocks();
    let oracle_db = Database::new(net, &compacted, &vidx, &kb).with_keyword_index(&kidx);
    let live_db = snapshot.database();
    for (q_i, q) in queries.iter().enumerate() {
        let want = fingerprint(&BruteForce.run(&oracle_db, q).expect("oracle runs"));
        let map_fp = |r: &QueryResult| -> Vec<(TrajectoryId, u64, u64, u64, u64)> {
            fingerprint(r)
                .into_iter()
                .map(|(id, s, sp, tx, tm)| {
                    let mapped = id_map[id.index()]
                        .unwrap_or_else(|| panic!("{label} q{q_i}: served retired {id}"));
                    (mapped, s, sp, tx, tm)
                })
                .collect()
        };
        for (name, algo) in lineup() {
            let got = algo.run(&live_db, q).expect("recovered run");
            assert_eq!(
                want,
                map_fp(&got),
                "{label} q{q_i}: recovered {name} diverged from rebuild"
            );
        }
        let brute = BruteForce.run(&live_db, q).expect("recovered oracle");
        assert_eq!(
            want,
            map_fp(&brute),
            "{label} q{q_i}: recovered brute force diverged"
        );
    }
}

/// Copies the WAL dir into a fresh crash-scene dir, keeping only WAL
/// segments at-or-before `seg` (later ones never existed at the crash
/// point) and truncating the copy of `seg` itself to `keep` bytes.
/// Checkpoint files are copied untouched.
fn materialize_crash(src: &Path, dst: &Path, seg: &Path, keep: u64) {
    if dst.exists() {
        std::fs::remove_dir_all(dst).unwrap();
    }
    std::fs::create_dir_all(dst).unwrap();
    let seg_name = seg.file_name().unwrap().to_str().unwrap().to_string();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.ends_with(".seg") && name.as_str() > seg_name.as_str() {
            continue;
        }
        std::fs::copy(&path, dst.join(&name)).unwrap();
    }
    corrupt::truncate_file(dst.join(&seg_name), keep).unwrap();
}

/// Runs recovery against a crash scene and checks the full contract for a
/// durable prefix of `m` batches: replay counts, state shape, and
/// bit-identical answers across all algorithms.
#[allow(clippy::too_many_arguments)]
fn check_crash_point(
    scene: &Path,
    ds: &Dataset,
    batches: &[Vec<Mutation>],
    m: usize,
    expect_torn: bool,
    queries: &[UotsQuery],
    label: &str,
) {
    let recovered = recover(&StdFs, scene, Some(ds), None, None)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let report = &recovered.report;
    assert_eq!(
        report.replayed_batches as usize, m,
        "{label}: wrong durable prefix (report: {report:?})"
    );
    assert_eq!(
        report.wal_corruption.is_some(),
        expect_torn,
        "{label}: torn-tail detection mismatch (report: {report:?})"
    );
    let (want_store, want_live) = expected_state(ds, batches, m);
    let snap = recovered.manager.snapshot();
    assert_eq!(snap.store().len(), want_store.len(), "{label}: store len");
    assert_eq!(snap.live(), &want_live, "{label}: liveness mask");
    assert_matches_rebuild(&snap, ds.vocab.len(), queries, label);
}

/// Crash at **every record boundary** and at torn cuts inside every
/// record: recovery must serve exactly the durable prefix, bit-identical
/// to a from-scratch rebuild, for all four algorithms.
#[test]
fn crash_at_every_record_boundary_recovers_durable_prefix() {
    let dir = tmpdir("boundaries");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(24, 9)).expect("dataset builds");
    let batches = scripted_batches(&ds, 8, 0xb07);
    let mut rng = StdRng::seed_from_u64(0xc0a7);
    let queries: Vec<UotsQuery> = (0..2)
        .map(|_| random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()))
        .collect();

    // write the full log once, remembering the byte boundary after the
    // header and after every record — the exhaustive crash-point set
    let mut writer = WalWriter::open(
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        Arc::new(StdFs),
        None,
        None,
    )
    .expect("wal opens");
    let mut boundaries = vec![writer.position()];
    for batch in &batches {
        writer.append(batch).expect("append");
        boundaries.push(writer.position());
    }
    drop(writer);

    for (m, (seg, offset)) in boundaries.iter().enumerate() {
        // crash exactly on the boundary: m batches durable, clean tail
        let scene = dir.join("scene");
        materialize_crash(&wal_dir, &scene, seg, *offset);
        check_crash_point(
            &scene,
            &ds,
            &batches,
            m,
            false,
            &queries,
            &format!("boundary {m}"),
        );
        // torn cuts inside the next record: still m batches durable, and
        // the tear must be detected and reported
        if m < batches.len() {
            let (next_seg, next_offset) = &boundaries[m + 1];
            let record_len = next_offset - offset;
            for cut in [1, record_len / 2, record_len - 1] {
                if cut == 0 || cut >= record_len {
                    continue;
                }
                materialize_crash(&wal_dir, &scene, next_seg, offset + cut);
                check_crash_point(
                    &scene,
                    &ds,
                    &batches,
                    m,
                    true,
                    &queries,
                    &format!("torn record {m} cut +{cut}"),
                );
            }
        }
    }
}

/// Bit flips cut the log at the damaged record — everything before stays
/// recoverable and correct, everything after is discarded, never applied
/// half-corrupt.
#[test]
fn bit_flips_cut_the_log_at_the_damaged_record() {
    let dir = tmpdir("bitflips");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(20, 11)).expect("dataset builds");
    let batches = scripted_batches(&ds, 6, 0x1337);
    let mut rng = StdRng::seed_from_u64(0xb17f);
    let queries: Vec<UotsQuery> = (0..2)
        .map(|_| random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()))
        .collect();

    let mut writer = WalWriter::open(
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        Arc::new(StdFs),
        None,
        None,
    )
    .expect("wal opens");
    let mut boundaries = vec![writer.position()];
    for batch in &batches {
        writer.append(batch).expect("append");
        boundaries.push(writer.position());
    }
    drop(writer);
    let seg = boundaries[0].0.clone();

    // flip one payload bit inside each record: the CRC must cut the log
    // exactly there
    for m in 0..batches.len() {
        let record_start = boundaries[m].1;
        let record_end = boundaries[m + 1].1;
        let scene = dir.join("scene");
        materialize_crash(&wal_dir, &scene, &seg, u64::MAX); // full copy
                                                             // a byte inside the payload (skip the 16-byte record header)
        let victim = record_start + 16 + (record_end - record_start - 16) / 2;
        corrupt::flip_bit(scene.join(seg.file_name().unwrap()), victim, 3).unwrap();
        check_crash_point(
            &scene,
            &ds,
            &batches,
            m,
            true,
            &queries,
            &format!("payload flip in record {m}"),
        );
    }

    // flip a bit in the segment magic: nothing is recoverable from the
    // WAL, so recovery falls back to the base dataset alone
    let scene = dir.join("scene");
    materialize_crash(&wal_dir, &scene, &seg, u64::MAX);
    corrupt::flip_bit(scene.join(seg.file_name().unwrap()), 0, 0).unwrap();
    check_crash_point(&scene, &ds, &batches, 0, true, &queries, "magic flip");
}

/// Tiny segments force a rotation per batch; crash points at and inside
/// segment boundaries (including wholly missing later segments) recover
/// the same durable prefix as a single-segment log would.
#[test]
fn segment_rotation_crash_points_recover_cleanly() {
    let dir = tmpdir("rotation");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(18, 5)).expect("dataset builds");
    let batches = scripted_batches(&ds, 6, 0x5e65);
    let mut rng = StdRng::seed_from_u64(0x5e65);
    let queries: Vec<UotsQuery> = (0..2)
        .map(|_| random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()))
        .collect();

    let mut writer = WalWriter::open(
        &wal_dir,
        WalConfig {
            segment_bytes: 1, // rotate after every batch
            fsync: FsyncPolicy::Never,
        },
        Arc::new(StdFs),
        None,
        None,
    )
    .expect("wal opens");
    let mut boundaries = vec![writer.position()];
    for batch in &batches {
        writer.append(batch).expect("append");
        boundaries.push(writer.position());
    }
    drop(writer);
    let segments = wal::list_segments(&StdFs, &wal_dir).expect("list");
    assert!(
        segments.len() >= batches.len(),
        "tiny segment_bytes must rotate per batch: {segments:?}"
    );

    // `position()` after a rotating append points at the fresh header-only
    // segment, so boundaries[m].0 is the segment that *receives* batch m;
    // cut by the on-disk length of that segment instead
    for (m, boundary) in boundaries.iter().take(batches.len()).enumerate() {
        let seg = &boundary.0;
        let full_len = std::fs::metadata(seg).unwrap().len();
        let scene = dir.join("scene");
        // crash right after batch m became durable; the next segment was
        // never created
        materialize_crash(&wal_dir, &scene, seg, full_len);
        check_crash_point(
            &scene,
            &ds,
            &batches,
            m + 1,
            false,
            &queries,
            &format!("rotation boundary after batch {m}"),
        );
        // torn write inside batch m's record: prefix shrinks by one
        materialize_crash(&wal_dir, &scene, seg, full_len - 1);
        check_crash_point(
            &scene,
            &ds,
            &batches,
            m,
            true,
            &queries,
            &format!("rotation torn tail in batch {m}"),
        );
    }
}

/// Checkpoints shorten replay without changing answers; corrupt
/// checkpoints fall back — newest-but-one first, base dataset last —
/// and the fall-back chain is reported.
#[test]
fn checkpoints_shorten_replay_and_corrupt_ones_fall_back() {
    let dir = tmpdir("checkpoints");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(22, 7)).expect("dataset builds");
    let batches = scripted_batches(&ds, 8, 0xcafe);
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let queries: Vec<UotsQuery> = (0..2)
        .map(|_| random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()))
        .collect();

    let mut writer = WalWriter::open(
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        Arc::new(StdFs),
        None,
        None,
    )
    .expect("wal opens");
    for batch in &batches {
        writer.append(batch).expect("append");
    }
    drop(writer);

    // cut checkpoints at lsn 3 and lsn 6 from the oracle's state
    for lsn in [3u64, 6] {
        let (store, live) = expected_state(&ds, &batches, lsn as usize);
        let ck = Checkpoint {
            network: ds.network.clone(),
            vocab: ds.vocab.clone(),
            store,
            live,
            epoch: lsn, // one publish per batch in this script
            lsn,
        };
        persist::save_checkpoint_file(&StdFs, &ck, &wal_dir.join(format!("ckpt-{lsn:020}.uotsck")))
            .expect("checkpoint saves");
    }

    let full = batches.len();
    let all = |label: &str, want_replayed: u64, want_rejected: usize| {
        let recovered = recover(&StdFs, &wal_dir, Some(&ds), None, None).expect("recovery");
        assert_eq!(
            recovered.report.replayed_batches, want_replayed,
            "{label}: replay length"
        );
        assert_eq!(
            recovered.report.rejected_checkpoints.len(),
            want_rejected,
            "{label}: rejected checkpoints"
        );
        let (want_store, want_live) = expected_state(&ds, &batches, full);
        let snap = recovered.manager.snapshot();
        assert_eq!(snap.store().len(), want_store.len(), "{label}: store len");
        assert_eq!(snap.live(), &want_live, "{label}: liveness mask");
        assert_matches_rebuild(&snap, ds.vocab.len(), &queries, label);
        recovered
    };

    // newest checkpoint (lsn 6) wins: only 2 batches replayed
    let r = all("both checkpoints valid", (full as u64) - 6, 0);
    assert!(
        matches!(&r.report.source, RecoverySource::Checkpoint(p) if p.to_string_lossy().contains("006")
            || p.to_string_lossy().contains("0006")),
        "should recover from the lsn-6 checkpoint: {:?}",
        r.report.source
    );

    // corrupt the newest: falls back to lsn 3, replays 5, reports the reject
    corrupt::flip_bit(wal_dir.join(format!("ckpt-{:020}.uotsck", 6)), 40, 2).unwrap();
    let r = all("newest checkpoint corrupt", (full as u64) - 3, 1);
    assert!(matches!(&r.report.source, RecoverySource::Checkpoint(_)));

    // corrupt both: base dataset fallback, full replay, both rejects listed
    corrupt::truncate_file(wal_dir.join(format!("ckpt-{:020}.uotsck", 3)), 10).unwrap();
    let r = all("all checkpoints corrupt", full as u64, 2);
    assert_eq!(r.report.source, RecoverySource::BaseDataset);
}

/// Once `prune_segments` has deleted log covered by the newest checkpoint,
/// older checkpoints are no longer valid recovery bases: the surviving
/// tail starts past the LSNs they'd need replayed. Recovery must reject
/// such a fallback (and the base-dataset arm) rather than splice the tail
/// onto a state missing the pruned range — which would assign wrong dense
/// [`TrajectoryId`]s silently.
#[test]
fn pruned_log_rejects_gapped_checkpoint_fallback() {
    let (wal_dir, ds, batches) = pruned_log("gapped", 0xfa11);

    // with the lsn-6 checkpoint intact the tail is contiguous and recovery
    // reproduces the full state
    let recovered = recover(&StdFs, &wal_dir, Some(&ds), None, None).expect("recovery");
    assert_eq!(recovered.report.replayed_batches, 2);
    let (want_store, want_live) = expected_state(&ds, &batches, batches.len());
    let snap = recovered.manager.snapshot();
    assert_eq!(snap.store().len(), want_store.len());
    assert_eq!(snap.live(), &want_live);

    // corrupt it: the lsn-3 checkpoint would need lsns 4..=6 replayed but
    // they are gone, and the base dataset would need 1..=6 — both gapped.
    // Recovery must refuse, not silently skip the pruned range.
    corrupt::flip_bit(wal_dir.join(format!("ckpt-{:020}.uotsck", 6)), 40, 2).unwrap();
    match recover(&StdFs, &wal_dir, Some(&ds), None, None) {
        Err(DurableError::Inconsistent(msg)) => {
            assert!(msg.contains("pruned"), "{msg}")
        }
        Err(e) => panic!("want Inconsistent, got {e}"),
        Ok(_) => panic!("gapped fallback must be rejected"),
    }
}

/// Regression: `uots status` planned "base dataset + 2 batches" over the
/// gapped log above and called it recoverable, while recovery refused it.
/// The inspection now reports recovery's own plan: no checkpoint, a base
/// arm gapped at lsn 7, unrecoverable even with the base dataset at hand.
#[test]
fn inspection_plans_what_recovery_does_on_a_gapped_log() {
    let (wal_dir, ds, _) = pruned_log("gapped-inspect", 0xfa12);
    corrupt::flip_bit(wal_dir.join(format!("ckpt-{:020}.uotsck", 6)), 40, 2).unwrap();

    let report = scrub::inspect(&StdFs, &wal_dir).expect("inspect");
    assert!(
        report.plan.checkpoint.is_none(),
        "{:?}",
        report.plan.rejected
    );
    assert_eq!(report.plan.rejected.len(), 2, "{:?}", report.plan.rejected);
    assert_eq!(report.plan.base_gap, Some(7));
    assert!(!report.recoverable(true));
    assert!(matches!(
        recover(&StdFs, &wal_dir, Some(&ds), None, None),
        Err(DurableError::Inconsistent(_))
    ));
}

/// Regression: over a directory holding only a checkpoint at lsn 8 (its
/// segments pruned or lost), `uots status` said a resumed writer starts at
/// lsn 1, reissuing lsns the checkpoint covers; recovery resumes at 9.
#[test]
fn inspection_and_recovery_agree_on_next_lsn_past_a_lone_checkpoint() {
    let dir = tmpdir("lone-checkpoint");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(22, 7)).expect("dataset builds");
    let batches = scripted_batches(&ds, 8, 0x10e);
    let (store, live) = expected_state(&ds, &batches, 8);
    let ck = Checkpoint {
        network: ds.network.clone(),
        vocab: ds.vocab.clone(),
        store,
        live,
        epoch: 8,
        lsn: 8,
    };
    persist::save_checkpoint_file(&StdFs, &ck, &wal_dir.join(format!("ckpt-{:020}.uotsck", 8)))
        .expect("checkpoint saves");

    let report = scrub::inspect(&StdFs, &wal_dir).expect("inspect");
    let recovered = recover(&StdFs, &wal_dir, None, None, None).expect("recovery");
    assert_eq!(recovered.report.next_lsn, 9);
    assert_eq!(report.plan.next_lsn, recovered.report.next_lsn);
}

/// Recovery does its planning work once: every WAL segment is read once,
/// and checkpoints are loaded newest first only until one is taken —
/// and the inspection behind `uots status` scans the log once too, on
/// top of validating every checkpoint.
#[test]
fn recovery_reads_each_segment_once_and_checkpoints_until_one_is_taken() {
    let dir = tmpdir("read-counts");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(22, 7)).expect("dataset builds");
    let batches = scripted_batches(&ds, 8, 0x4ead);
    let config = WalConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 1,
    };
    let mut writer =
        WalWriter::open(&wal_dir, config, Arc::new(StdFs), None, None).expect("wal opens");
    for batch in &batches {
        writer.append(batch).expect("append");
    }
    drop(writer);
    for lsn in [3u64, 6] {
        let (store, live) = expected_state(&ds, &batches, lsn as usize);
        let ck = Checkpoint {
            network: ds.network.clone(),
            vocab: ds.vocab.clone(),
            store,
            live,
            epoch: lsn,
            lsn,
        };
        persist::save_checkpoint_file(&StdFs, &ck, &wal_dir.join(format!("ckpt-{lsn:020}.uotsck")))
            .expect("checkpoint saves");
    }
    let reads_of = |fs: &CountingFs, ext: &str| -> Vec<usize> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect();
        paths.sort();
        paths.iter().map(|p| fs.reads(p)).collect()
    };

    // the newest checkpoint is taken: the older one is never loaded
    let fs = CountingFs::default();
    recover(&fs, &wal_dir, Some(&ds), None, None).expect("recovery");
    assert_eq!(reads_of(&fs, "seg"), vec![1; batches.len() + 1]);
    assert_eq!(reads_of(&fs, "uotsck"), vec![0, 1]);

    // a damaged newest checkpoint costs one more load, no second scan
    corrupt::flip_bit(wal_dir.join(format!("ckpt-{:020}.uotsck", 6)), 40, 2).unwrap();
    let fs = CountingFs::default();
    recover(&fs, &wal_dir, Some(&ds), None, None).expect("recovery");
    assert_eq!(reads_of(&fs, "seg"), vec![1; batches.len() + 1]);
    assert_eq!(reads_of(&fs, "uotsck"), vec![1, 1]);

    // the inspection: the plan's one scan, and every checkpoint loaded
    // once but the damaged one the plan passed over, which validation
    // loads again to tell damage from an I/O error
    let fs = CountingFs::default();
    scrub::inspect(&fs, &wal_dir).expect("inspect");
    assert_eq!(reads_of(&fs, "seg"), vec![1; batches.len() + 1]);
    assert_eq!(reads_of(&fs, "uotsck"), vec![1, 2]);
    std::fs::remove_file(wal_dir.join(format!("ckpt-{:020}.uotsck", 6))).unwrap();
    let fs = CountingFs::default();
    scrub::inspect(&fs, &wal_dir).expect("inspect");
    assert_eq!(reads_of(&fs, "uotsck"), vec![1]);
}

/// [`StdFs`] that counts whole-file reads per path.
#[derive(Default)]
struct CountingFs(std::sync::Mutex<std::collections::HashMap<PathBuf, usize>>);

impl CountingFs {
    fn reads(&self, path: &Path) -> usize {
        self.0.lock().unwrap().get(path).copied().unwrap_or(0)
    }
}

impl StorageBackend for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn uots::storage::StorageFile>> {
        StdFs.create(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        *self
            .0
            .lock()
            .unwrap()
            .entry(path.to_path_buf())
            .or_default() += 1;
        StdFs.read(path)
    }
    fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        StdFs.read_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        StdFs.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        StdFs.truncate(path, len)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        StdFs.sync_dir(dir)
    }
}

/// A log of `8` scripted batches rotated one record per segment, with
/// checkpoints at lsn 3 and 6 and every segment the lsn-6 one covers
/// pruned: the surviving tail is lsns 7..=8.
fn pruned_log(name: &str, seed: u64) -> (PathBuf, Dataset, Vec<Vec<Mutation>>) {
    let dir = tmpdir(name);
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(22, 7)).expect("dataset builds");
    let batches = scripted_batches(&ds, 8, seed);

    let mut writer = WalWriter::open(
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::Never,
            segment_bytes: 1, // rotate after every batch: one LSN per segment
        },
        Arc::new(StdFs),
        None,
        None,
    )
    .expect("wal opens");
    for batch in &batches {
        writer.append(batch).expect("append");
    }
    drop(writer);

    for lsn in [3u64, 6] {
        let (store, live) = expected_state(&ds, &batches, lsn as usize);
        let ck = Checkpoint {
            network: ds.network.clone(),
            vocab: ds.vocab.clone(),
            store,
            live,
            epoch: lsn,
            lsn,
        };
        persist::save_checkpoint_file(&StdFs, &ck, &wal_dir.join(format!("ckpt-{lsn:020}.uotsck")))
            .expect("checkpoint saves");
    }
    // prune against the newest checkpoint: segments for lsns 1..=6 go,
    // the surviving tail starts at lsn 7
    let pruned = wal::prune_segments(&StdFs, &wal_dir, 6).expect("prune");
    assert_eq!(pruned, 6, "one segment per lsn");
    (wal_dir, ds, batches)
}

/// End-to-end through [`DurableIngest`]: the write path cuts checkpoints
/// on cadence, prunes covered segments, and a recovery of the directory
/// reproduces the exact final state — then resumes writing.
#[test]
fn durable_ingest_round_trip_with_checkpoint_cadence() {
    let dir = tmpdir("e2e");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let ds = Dataset::build(&DatasetConfig::small(20, 3)).expect("dataset builds");
    let batches = scripted_batches(&ds, 9, 0xe2e);
    let mut rng = StdRng::seed_from_u64(0xe2e);
    let queries: Vec<UotsQuery> = (0..2)
        .map(|_| random_query(&mut rng, ds.network.num_nodes(), ds.vocab.len()))
        .collect();

    let mut ingest = DurableIngest::create(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.clone(),
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::EveryBatch,
            ..WalConfig::default()
        },
        Some(2), // checkpoint every second batch (at publish boundaries)
        None,
        Arc::new(StdFs),
        RetryPolicy::default(),
        None,
    )
    .expect("durable ingest opens");
    for (i, batch) in batches.iter().enumerate() {
        ingest.apply(batch.clone()).expect("apply");
        if i % 3 == 2 {
            ingest.publish().expect("publish");
        }
    }
    let live_snap = ingest.checkpoint_now().expect("final checkpoint");
    assert!(
        ingest.last_checkpoint_lsn() == batches.len() as u64,
        "final checkpoint must cover the whole log"
    );
    drop(ingest); // crash: no clean shutdown beyond what's already durable

    let recovered = recover(&StdFs, &wal_dir, Some(&ds), None, None).expect("recovery");
    assert!(
        matches!(recovered.report.source, RecoverySource::Checkpoint(_)),
        "cadence must have produced checkpoints: {:?}",
        recovered.report
    );
    assert_eq!(
        recovered.report.replayed_batches, 0,
        "final checkpoint covers everything"
    );
    let snap = recovered.manager.snapshot();
    assert_eq!(snap.live(), live_snap.live());
    assert_eq!(snap.epoch(), live_snap.epoch());
    assert_matches_rebuild(&snap, ds.vocab.len(), &queries, "e2e");

    // the recovered manager is a working write path: resume and publish
    let mut resumed = DurableIngest::resume(
        recovered,
        &wal_dir,
        WalConfig::default(),
        None,
        None,
        Arc::new(StdFs),
        RetryPolicy::default(),
        None,
    )
    .expect("resume");
    let t = random_traj(&mut rng, ds.network.num_nodes(), ds.vocab.len());
    let (_, ids) = resumed
        .apply(vec![Mutation::Insert(t)])
        .expect("resumed ingest");
    let id = ids[0];
    assert_eq!(id.index(), snap.store().len());
    let after = resumed.publish().expect("resumed publish");
    assert!(after.live().is_live(id));
}
