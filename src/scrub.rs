//! Offline integrity checking for a durable ingest directory.
//!
//! Two entry points, both driving the same walk:
//!
//! * [`inspect`] — read-only: verifies every checkpoint's CRC and walks
//!   the WAL's durable prefix, reporting what [`recover`](crate::durable::recover)
//!   would do. Behind `uots status`.
//! * [`scrub`] — the repair pass behind `uots fsck`: additionally **moves**
//!   wholly-unusable files (checkpoints that fail validation, WAL segments
//!   that are unreachable because they sit behind a corrupt one or have a
//!   damaged header) into `quarantine/` with a manifest line each. Nothing
//!   is ever deleted — quarantine preserves the evidence for forensics —
//!   and a torn tail *inside* an otherwise-good segment is reported but
//!   left in place (the segment still carries durable records; the writer
//!   truncates the tear on reopen exactly like recovery does).
//!
//! ## Quarantine layout
//!
//! ```text
//! <dir>/quarantine/<original-filename>   the moved file, byte-identical
//! <dir>/quarantine/MANIFEST.txt          one line per file:
//!                                        <filename>\t<reason>
//! ```
//!
//! A file already present under quarantine is never overwritten: the move
//! appends `.N` to the name until it is fresh, so repeated scrubs cannot
//! destroy earlier evidence.

use std::path::{Path, PathBuf};

use crate::durable::list_checkpoints_with;
use uots_core::storage::{write_atomic, StorageBackend};
use uots_core::wal::{self, Corruption};
use uots_datagen::persist;

/// Name of the quarantine subdirectory.
pub const QUARANTINE_DIR: &str = "quarantine";
/// Name of the manifest file inside the quarantine directory.
pub const QUARANTINE_MANIFEST: &str = "MANIFEST.txt";

/// One file moved into quarantine.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Where the file lived.
    pub original: PathBuf,
    /// Where it is now.
    pub quarantined: PathBuf,
    /// Why it was moved.
    pub reason: String,
}

/// What a recovery run over the (possibly scrubbed) directory would do.
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// Newest checkpoint that validates, with its high-water LSN.
    pub checkpoint: Option<(PathBuf, u64)>,
    /// Durable WAL batches that would replay on top of it.
    pub replayable_batches: u64,
    /// Mutations inside those batches.
    pub replayable_mutations: u64,
    /// Where a resumed writer would continue.
    pub next_lsn: u64,
}

/// Result of an [`inspect`] or [`scrub`] walk.
#[derive(Debug)]
pub struct ScrubReport {
    /// WAL segments examined.
    pub segments: usize,
    /// Checkpoint files examined.
    pub checkpoints: usize,
    /// Checkpoints that failed CRC/structure validation. Under [`scrub`]
    /// these are also listed in [`quarantined`](Self::quarantined); under
    /// [`inspect`] they are only reported.
    pub invalid_checkpoints: Vec<(PathBuf, String)>,
    /// WAL segments unusable as a whole: damaged header, an LSN sequence
    /// break, or sitting behind a corrupt segment (unreachable by prefix
    /// replay). Same inspect/scrub split as invalid checkpoints.
    pub unusable_segments: Vec<(PathBuf, String)>,
    /// A torn record tail inside an otherwise-usable segment: reported,
    /// never moved (the segment still holds durable records; reopen/
    /// recovery truncates the tear).
    pub torn_tail: Option<Corruption>,
    /// Files actually moved (always empty for [`inspect`]).
    pub quarantined: Vec<QuarantineEntry>,
    /// What recovery would do with what remains.
    pub plan: RecoveryPlan,
}

impl ScrubReport {
    /// Whether the directory is fully clean: every checkpoint validates,
    /// every segment is reachable and whole.
    pub fn is_clean(&self) -> bool {
        self.invalid_checkpoints.is_empty()
            && self.unusable_segments.is_empty()
            && self.torn_tail.is_none()
    }

    /// Whether `recover()` would succeed, given whether the operator can
    /// supply the base dataset.
    pub fn recoverable(&self, has_base: bool) -> bool {
        self.plan.checkpoint.is_some() || has_base
    }
}

impl serde::Serialize for ScrubReport {
    fn serialize(&self) -> serde::Content {
        use serde::Content;
        fn path(p: &Path) -> Content {
            Content::Str(p.display().to_string())
        }
        fn verdicts(list: &[(PathBuf, String)]) -> Content {
            Content::Seq(
                list.iter()
                    .map(|(p, reason)| {
                        Content::Map(vec![
                            ("file".to_string(), path(p)),
                            ("reason".to_string(), Content::Str(reason.clone())),
                        ])
                    })
                    .collect(),
            )
        }
        let torn_tail = match &self.torn_tail {
            Some(c) => Content::Map(vec![
                ("file".to_string(), path(&c.segment)),
                ("offset".to_string(), Content::U64(c.offset)),
                ("reason".to_string(), Content::Str(c.reason.clone())),
            ]),
            None => Content::Null,
        };
        let quarantined = Content::Seq(
            self.quarantined
                .iter()
                .map(|q| {
                    Content::Map(vec![
                        ("original".to_string(), path(&q.original)),
                        ("quarantined".to_string(), path(&q.quarantined)),
                        ("reason".to_string(), Content::Str(q.reason.clone())),
                    ])
                })
                .collect(),
        );
        let plan = Content::Map(vec![
            (
                "checkpoint".to_string(),
                match &self.plan.checkpoint {
                    Some((p, lsn)) => Content::Map(vec![
                        ("file".to_string(), path(p)),
                        ("lsn".to_string(), Content::U64(*lsn)),
                    ]),
                    None => Content::Null,
                },
            ),
            (
                "replayable_batches".to_string(),
                Content::U64(self.plan.replayable_batches),
            ),
            (
                "replayable_mutations".to_string(),
                Content::U64(self.plan.replayable_mutations),
            ),
            ("next_lsn".to_string(), Content::U64(self.plan.next_lsn)),
        ]);
        Content::Map(vec![
            ("segments".to_string(), Content::U64(self.segments as u64)),
            (
                "checkpoints".to_string(),
                Content::U64(self.checkpoints as u64),
            ),
            ("clean".to_string(), Content::Bool(self.is_clean())),
            (
                "invalid_checkpoints".to_string(),
                verdicts(&self.invalid_checkpoints),
            ),
            (
                "unusable_segments".to_string(),
                verdicts(&self.unusable_segments),
            ),
            ("torn_tail".to_string(), torn_tail),
            ("quarantined".to_string(), quarantined),
            ("plan".to_string(), plan),
        ])
    }
}

/// Read-only integrity walk: validates checkpoints and the WAL, reports
/// what recovery would do. Moves nothing.
pub fn inspect(backend: &dyn StorageBackend, dir: &Path) -> Result<ScrubReport, std::io::Error> {
    walk(backend, dir, false)
}

/// The `uots fsck` pass: like [`inspect`], but moves wholly-unusable files
/// into `quarantine/` (see the module docs) and records them in the
/// manifest. Returns the report *after* the moves, so its plan reflects
/// the directory recovery would now see.
pub fn scrub(backend: &dyn StorageBackend, dir: &Path) -> Result<ScrubReport, std::io::Error> {
    walk(backend, dir, true)
}

fn walk(
    backend: &dyn StorageBackend,
    dir: &Path,
    quarantine: bool,
) -> Result<ScrubReport, std::io::Error> {
    // -- checkpoints: every one is CRC-validated independently. Only
    //    *validation* failures mark a checkpoint corrupt — an I/O error
    //    reading it is an operational problem (possibly transient), and
    //    quarantining a perfectly good checkpoint over a read hiccup
    //    would demote the recovery plan for nothing.
    let checkpoint_paths = list_checkpoints_with(backend, dir);
    let checkpoints = checkpoint_paths.len();
    let mut invalid_checkpoints = Vec::new();
    let mut valid: Vec<(PathBuf, u64)> = Vec::new(); // newest-first
    for path in checkpoint_paths {
        match persist::load_checkpoint_file_with(backend, &path) {
            Ok(ck) => valid.push((path, ck.lsn)),
            Err(persist::PersistError::Io(e)) => return Err(e),
            Err(e) => invalid_checkpoints.push((path, e.to_string())),
        }
    }

    // -- WAL: prefix replay finds the first damage; what lies beyond it
    //    is unreachable
    let scan = wal::replay_with(backend, dir, u64::MAX).map_err(wal_io)?;
    let all_segments = wal::list_segments_with(backend, dir).map_err(wal_io)?;
    let segments = all_segments.len();
    let mut unusable_segments: Vec<(PathBuf, String)> = Vec::new();
    let mut torn_tail = None;
    if let Some(c) = &scan.corruption {
        if c.offset < wal::HEADER_LEN {
            // header/sequence damage: the whole segment carries nothing
            // prefix replay can use
            unusable_segments.push((c.segment.clone(), c.reason.clone()));
        } else {
            torn_tail = Some(c.clone());
        }
        for seg in &all_segments {
            if *seg > c.segment {
                unusable_segments.push((
                    seg.clone(),
                    format!(
                        "unreachable: behind corruption in {}",
                        c.segment
                            .file_name()
                            .and_then(|n| n.to_str())
                            .unwrap_or("?")
                    ),
                ));
            }
        }
    }

    // -- quarantine pass
    let mut quarantined = Vec::new();
    if quarantine {
        let mut moves: Vec<(PathBuf, String)> = Vec::new();
        moves.extend(invalid_checkpoints.iter().cloned());
        moves.extend(unusable_segments.iter().cloned());
        if !moves.is_empty() {
            quarantined = quarantine_files(backend, dir, &moves)?;
        }
    }

    // -- recovery plan over what (now) remains
    // (re-)scan: under scrub the unusable files are gone by now, so the
    // prefix this sees is exactly what recovery would see
    let plan_scan = wal::replay_with(backend, dir, 0).map_err(wal_io)?;
    // recovery refuses a checkpoint whose surviving WAL tail does not
    // continue exactly at its lsn + 1 (segments in the gap were pruned
    // against a newer checkpoint that is now unusable) — mirror that
    // choice here so the plan reports what recover() would really use
    let chosen = valid.into_iter().find(|(_, lsn)| {
        plan_scan
            .batches
            .iter()
            .map(|(l, _)| *l)
            .find(|l| *l > *lsn)
            .is_none_or(|first| first == lsn + 1)
    });
    let after_lsn = chosen.as_ref().map_or(0, |(_, lsn)| *lsn);
    let tail: Vec<&(u64, Vec<uots_core::Mutation>)> = plan_scan
        .batches
        .iter()
        .filter(|(l, _)| *l > after_lsn)
        .collect();
    let replayable_mutations = tail.iter().map(|(_, b)| b.len() as u64).sum();
    let plan = RecoveryPlan {
        checkpoint: chosen,
        replayable_batches: tail.len() as u64,
        replayable_mutations,
        next_lsn: plan_scan.next_lsn,
    };

    Ok(ScrubReport {
        segments,
        checkpoints,
        invalid_checkpoints,
        unusable_segments,
        torn_tail,
        quarantined,
        plan,
    })
}

fn wal_io(e: wal::WalError) -> std::io::Error {
    match e {
        wal::WalError::Io(io) => io,
        wal::WalError::Corrupt(m) => std::io::Error::new(std::io::ErrorKind::InvalidData, m),
    }
}

/// Moves `files` into `dir/quarantine/`, never overwriting, and rewrites
/// the manifest with one line per quarantined file (existing manifest
/// lines are preserved).
fn quarantine_files(
    backend: &dyn StorageBackend,
    dir: &Path,
    files: &[(PathBuf, String)],
) -> Result<Vec<QuarantineEntry>, std::io::Error> {
    let qdir = dir.join(QUARANTINE_DIR);
    backend.create_dir_all(&qdir)?;
    let manifest_path = qdir.join(QUARANTINE_MANIFEST);
    let mut manifest = match backend.read(&manifest_path) {
        Ok(raw) => String::from_utf8_lossy(&raw).into_owned(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    // Existing quarantine contents, from the directory listing — probing
    // with read() would treat an existing-but-unreadable file as absent
    // and let the rename below destroy earlier evidence.
    let mut taken: std::collections::HashSet<String> = backend
        .read_dir(&qdir)?
        .into_iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();
    let mut entries = Vec::new();
    for (original, reason) in files {
        let name = original
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed")
            .to_string();
        // never overwrite earlier evidence: suffix until fresh
        let mut fresh = name.clone();
        let mut n = 0;
        while taken.contains(&fresh) {
            n += 1;
            fresh = format!("{name}.{n}");
        }
        taken.insert(fresh.clone());
        let target = qdir.join(&fresh);
        backend.rename(original, &target)?;
        let kept = target
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or(&name)
            .to_string();
        manifest.push_str(&format!("{kept}\t{reason}\n"));
        entries.push(QuarantineEntry {
            original: original.clone(),
            quarantined: target,
            reason: reason.clone(),
        });
    }
    backend.sync_dir(&qdir)?;
    backend.sync_dir(dir)?;
    write_atomic(backend, &manifest_path, manifest.as_bytes())?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{recover, DurableIngest};
    use uots_core::storage::StdFs;
    use uots_core::wal::WalConfig;
    use uots_core::Mutation;
    use uots_datagen::{Dataset, DatasetConfig};
    use uots_trajectory::Trajectory;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_scrub_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds a durable dir with a couple of checkpoints and WAL records.
    fn seeded_dir(name: &str) -> (PathBuf, Dataset) {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir(name);
        let mut ingest = DurableIngest::create(
            std::sync::Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.clone(),
            &dir,
            WalConfig::default(),
            Some(2),
            None,
        )
        .unwrap();
        let donor: Vec<Trajectory> = (0..6u32).map(|i| ds.store.get(TrajId(i)).clone()).collect();
        for (i, t) in donor.into_iter().enumerate() {
            ingest.apply(vec![Mutation::Insert(t)]).unwrap();
            if i % 2 == 1 {
                ingest.publish().unwrap();
            }
        }
        (dir, ds)
    }

    use uots_trajectory::TrajectoryId as TrajId;

    #[test]
    fn clean_directory_inspects_clean() {
        let (dir, _ds) = seeded_dir("clean");
        let r = inspect(&StdFs, &dir).unwrap();
        assert!(r.is_clean(), "{r:?}");
        assert!(r.segments >= 1);
        assert!(r.checkpoints >= 1);
        assert!(r.plan.checkpoint.is_some());
        assert!(r.recoverable(false));
        // inspect never creates quarantine
        assert!(!dir.join(QUARANTINE_DIR).exists());
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_with_manifest() {
        let (dir, ds) = seeded_dir("bad_ckpt");
        let cks = crate::durable::list_checkpoints(&dir);
        assert!(!cks.is_empty());
        // destroy the newest checkpoint's tail
        let victim = &cks[0];
        let mut raw = std::fs::read(victim).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xff;
        std::fs::write(victim, &raw).unwrap();

        let r = inspect(&StdFs, &dir).unwrap();
        assert_eq!(r.invalid_checkpoints.len(), 1);
        assert!(victim.exists(), "inspect must not move files");

        let r = scrub(&StdFs, &dir).unwrap();
        assert_eq!(r.quarantined.len(), 1);
        assert!(!victim.exists(), "scrub moves the corrupt checkpoint");
        let qfile = &r.quarantined[0].quarantined;
        assert!(qfile.exists(), "quarantine preserves the bytes");
        let manifest =
            std::fs::read_to_string(dir.join(QUARANTINE_DIR).join(QUARANTINE_MANIFEST)).unwrap();
        assert!(
            manifest.contains(victim.file_name().unwrap().to_str().unwrap()),
            "manifest must name the file: {manifest}"
        );
        assert!(manifest.contains('\t'), "manifest lines are name\\treason");
        // recovery falls back to the older checkpoint and still works
        let rec = recover(&dir, Some(&ds), None).unwrap();
        assert!(rec.report.rejected_checkpoints.is_empty(), "scrub cleaned");

        // a second scrub is a no-op and must not disturb the evidence
        let r2 = scrub(&StdFs, &dir).unwrap();
        assert!(r2.quarantined.is_empty());
        assert!(qfile.exists());
    }

    #[test]
    fn torn_tail_is_reported_but_never_moved() {
        let (dir, _ds) = seeded_dir("torn");
        let segs = wal::list_segments(&dir).unwrap();
        let last = segs.last().unwrap().clone();
        let raw = std::fs::read(&last).unwrap();
        if raw.len() > wal::HEADER_LEN as usize + 4 {
            std::fs::write(&last, &raw[..raw.len() - 3]).unwrap();
        } else {
            // the active segment is header-only; tear the previous one
            // by appending garbage instead
            let mut extended = raw.clone();
            extended.extend_from_slice(&[0xde, 0xad]);
            std::fs::write(&last, &extended).unwrap();
        }
        let r = scrub(&StdFs, &dir).unwrap();
        assert!(r.torn_tail.is_some(), "{r:?}");
        assert!(last.exists(), "torn segments keep their durable records");
        assert!(r.quarantined.is_empty());
    }

    #[test]
    fn segments_behind_corruption_are_quarantined() {
        let (dir, _ds) = seeded_dir("behind");
        let segs = wal::list_segments(&dir).unwrap();
        // force a multi-segment log: corrupt the header of the first
        // segment, leaving any later ones unreachable
        let mut raw = std::fs::read(&segs[0]).unwrap();
        raw[0] ^= 0xff;
        std::fs::write(&segs[0], &raw).unwrap();
        let r = scrub(&StdFs, &dir).unwrap();
        assert!(
            r.unusable_segments.iter().any(|(p, _)| p == &segs[0]),
            "damaged header makes the segment unusable: {r:?}"
        );
        assert!(!segs[0].exists());
        for seg in &segs[1..] {
            assert!(
                !seg.exists(),
                "segments behind the corruption are unreachable and quarantined"
            );
        }
        // everything quarantined is still on disk under quarantine/
        for q in &r.quarantined {
            assert!(q.quarantined.exists());
        }
    }
}
