//! Byte pins for the three persisted formats: the dataset file
//! (`UOTSDS2`), the checkpoint (`UOTSCKP1`) and a WAL segment. Each is
//! written from one fixed dataset and hashed with FNV-1a-64, so any change
//! to an encoder — field order, width, endianness, a section added or
//! dropped — fails here before it reaches a file on disk.

use std::path::PathBuf;
use std::sync::Arc;
use uots::core::wal::{WalConfig, WalWriter};
use uots::datagen::persist::{self, Checkpoint};
use uots::storage::StdFs;
use uots::{Dataset, DatasetConfig, LiveSet, Mutation, TrajectoryId};

/// FNV-1a-64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dataset() -> (Dataset, DatasetConfig) {
    let cfg = DatasetConfig::small(30, 77);
    (Dataset::build(&cfg).unwrap(), cfg)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uots_golden_bytes")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_pinned(what: &str, bytes: &[u8], len: usize, hash: u64) {
    let got = fnv1a(bytes);
    assert_eq!(bytes.len(), len, "{what}: length");
    assert_eq!(got, hash, "{what}: {got:#018x} != {hash:#018x}");
}

#[test]
fn dataset_file_bytes_are_pinned() {
    let (ds, cfg) = dataset();
    let bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
    assert_pinned("UOTSDS2", &bytes, 47_007, 0x7f1b_d210_93c0_377c);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let (ds, _) = dataset();
    let mut live = LiveSet::all_live(ds.store.len());
    live.retire(TrajectoryId(3));
    let ck = Checkpoint {
        network: ds.network,
        vocab: ds.vocab,
        store: ds.store,
        live,
        epoch: 2,
        lsn: 5,
    };
    let bytes = persist::save_checkpoint(&ck);
    assert_pinned("UOTSCKP1", &bytes, 46_716, 0xbb6b_1478_24f3_0cb4);
}

#[test]
fn wal_segment_bytes_are_pinned() {
    let (ds, _) = dataset();
    let t0 = ds.store.get(TrajectoryId(0)).clone();
    let t1 = ds.store.get(TrajectoryId(1)).clone();
    let dir = tmpdir("wal");
    let mut wal = WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
    wal.append(&[
        Mutation::Insert(t0.clone()),
        Mutation::Insert(t1),
        Mutation::Retire(TrajectoryId(3)),
    ])
    .unwrap();
    wal.append(&[Mutation::Retire(TrajectoryId(0)), Mutation::Insert(t0)])
        .unwrap();
    drop(wal);
    let bytes = std::fs::read(dir.join("wal-00000000000000000001.seg")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_pinned("WAL segment", &bytes, 889, 0xbb8f_bd20_bb26_74b5);
}
