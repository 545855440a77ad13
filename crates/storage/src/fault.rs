//! Deterministic storage-fault injection.
//!
//! [`FaultFs`] wraps the real filesystem and injects failures according
//! to a seeded schedule: fail the Nth operation of a kind (scripted
//! mode), or fail each operation with configured probabilities (random
//! mode, the chaos harness's driver). Faults model what real disks do:
//!
//! * **transient errors** (`EINTR`-like) — nothing happened, a retry
//!   succeeds;
//! * **ENOSPC** — a *prefix* of the buffer hits the file, then the write
//!   fails;
//! * **short/torn writes** — same partial-prefix semantics with a
//!   permanent error;
//! * **fsync failure with page loss** (the "fsyncgate" semantics) — the
//!   sync fails *and the unsynced suffix is dropped*, exactly as a kernel
//!   that discards dirty pages after an I/O error; a later sync will
//!   succeed without the data ever having reached the disk.
//!
//! Beyond injecting faults, `FaultFs` tracks the **durable length** of
//! every file it created: bytes at or below it survived a successful
//! sync, bytes above it live in the page cache. [`FaultFs::crash`] uses
//! that to materialize a worst-case crash image — each file keeps its
//! durable prefix plus a seeded random amount of the unsynced tail — so
//! a test can assert that recovery never depends on bytes that were never
//! acknowledged as durable.
//!
//! The [`FaultConfig::lie_on_fsync`] switch makes the injector *swallow*
//! fsync failures (report success while dropping the pages): a
//! deliberately broken backend the chaos harness uses to prove it can
//! catch an acked-write-lost bug.

use crate::{SplitMix64, StorageBackend, StorageFile};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The operation categories a schedule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// File creation.
    Create,
    /// Whole-file read.
    Read,
    /// Directory listing.
    ReadDir,
    /// A `write_all` on an open file.
    Write,
    /// A `sync_data` / `sync_all` on an open file.
    Sync,
    /// Directory fsync.
    SyncDir,
    /// Rename.
    Rename,
    /// File removal.
    Remove,
    /// Truncate-and-sync.
    Truncate,
    /// Recursive directory creation.
    CreateDirAll,
}

const OP_KINDS: usize = 10;

impl OpKind {
    fn index(self) -> usize {
        match self {
            OpKind::Create => 0,
            OpKind::Read => 1,
            OpKind::ReadDir => 2,
            OpKind::Write => 3,
            OpKind::Sync => 4,
            OpKind::SyncDir => 5,
            OpKind::Rename => 6,
            OpKind::Remove => 7,
            OpKind::Truncate => 8,
            OpKind::CreateDirAll => 9,
        }
    }
}

/// What an injected failure does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `ErrorKind::Interrupted`; no side effect — a retry succeeds.
    Transient,
    /// A permanent I/O error; no side effect.
    Permanent,
    /// Writes: a seeded prefix of the buffer lands, then
    /// `ErrorKind::StorageFull`. Other ops: `StorageFull`, no side effect.
    Enospc,
    /// Writes only: a seeded prefix lands, then a permanent error —
    /// the torn-write case.
    ShortWrite,
    /// Syncs only: the sync fails **and the unsynced suffix of the file
    /// is dropped** (fsyncgate semantics).
    FsyncLoss,
}

/// One scripted fault: fail the `nth` (0-based) operation of kind `op`.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedFault {
    /// Operation category to match.
    pub op: OpKind,
    /// 0-based index among operations of that category.
    pub nth: u64,
    /// The failure to inject.
    pub fault: Fault,
}

/// Random-mode probabilities. All default to 0 (no faults).
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed for every random decision (which ops fail, partial-write
    /// lengths, crash-image cuts).
    pub seed: u64,
    /// Probability a `Write` fails (variant drawn among
    /// transient / ENOSPC / short write / permanent).
    pub p_write: f64,
    /// Probability a `Sync` fails (variant drawn among
    /// fsync-loss / transient / permanent).
    pub p_sync: f64,
    /// Probability a metadata op (create, rename, remove, truncate,
    /// read-dir, sync-dir, mkdir) fails (transient or permanent).
    pub p_meta: f64,
    /// **Broken-backend mode**: fsync-loss faults drop the pages but
    /// report success. Exists so the chaos harness can prove it detects
    /// an acked-write-lost bug; never enable outside that self-test.
    pub lie_on_fsync: bool,
}

impl FaultConfig {
    /// A config with the given seed and no faults.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            p_write: 0.0,
            p_sync: 0.0,
            p_meta: 0.0,
            lie_on_fsync: false,
        }
    }
}

struct State {
    counts: [u64; OP_KINDS],
    script: Vec<(ScriptedFault, bool)>, // (fault, consumed)
    config: FaultConfig,
    rng: SplitMix64,
    /// durable length per file created through this backend
    durable: HashMap<PathBuf, u64>,
    injected: u64,
    log: Vec<String>,
}

impl State {
    /// Counts the op and decides whether (and how) it fails.
    fn decide(&mut self, op: OpKind) -> Option<Fault> {
        let n = self.counts[op.index()];
        self.counts[op.index()] += 1;
        for (s, consumed) in &mut self.script {
            if !*consumed && s.op == op && s.nth == n {
                *consumed = true;
                self.injected += 1;
                self.log.push(format!("{op:?}#{n}: scripted {:?}", s.fault));
                return Some(s.fault);
            }
        }
        let p = match op {
            OpKind::Write => self.config.p_write,
            OpKind::Sync => self.config.p_sync,
            OpKind::Read => 0.0,
            _ => self.config.p_meta,
        };
        if p > 0.0 && self.rng.next_f64() < p {
            let draw = self.rng.next_f64();
            let fault = match op {
                OpKind::Write => {
                    if draw < 0.35 {
                        Fault::Transient
                    } else if draw < 0.60 {
                        Fault::Enospc
                    } else if draw < 0.85 {
                        Fault::ShortWrite
                    } else {
                        Fault::Permanent
                    }
                }
                OpKind::Sync => {
                    if draw < 0.60 {
                        Fault::FsyncLoss
                    } else if draw < 0.85 {
                        Fault::Transient
                    } else {
                        Fault::Permanent
                    }
                }
                _ => {
                    if draw < 0.70 {
                        Fault::Transient
                    } else {
                        Fault::Permanent
                    }
                }
            };
            self.injected += 1;
            self.log.push(format!("{op:?}#{n}: random {fault:?}"));
            Some(fault)
        } else {
            None
        }
    }
}

/// The fault-injecting backend. Writes go to the real filesystem; the
/// schedule decides which operations fail and how. See the module docs.
pub struct FaultFs {
    state: Arc<Mutex<State>>,
}

fn injected_err(fault: Fault) -> io::Error {
    match fault {
        Fault::Transient => io::Error::new(io::ErrorKind::Interrupted, "injected transient fault"),
        Fault::Permanent => io::Error::other("injected permanent fault"),
        Fault::Enospc => io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"),
        Fault::ShortWrite => io::Error::other("injected short write"),
        Fault::FsyncLoss => io::Error::other("injected fsync failure (pages dropped)"),
    }
}

impl FaultFs {
    /// A backend driven purely by the random `config`.
    pub fn random(config: FaultConfig) -> Arc<Self> {
        Arc::new(FaultFs {
            state: Arc::new(Mutex::new(State {
                counts: [0; OP_KINDS],
                script: Vec::new(),
                rng: SplitMix64::new(config.seed),
                config,
                durable: HashMap::new(),
                injected: 0,
                log: Vec::new(),
            })),
        })
    }

    /// A backend that fails exactly the scripted operations and nothing
    /// else.
    pub fn scripted(seed: u64, faults: Vec<ScriptedFault>) -> Arc<Self> {
        let fs = Self::random(FaultConfig::quiet(seed));
        fs.state.lock().unwrap().script = faults.into_iter().map(|f| (f, false)).collect();
        fs
    }

    /// Total faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Human-readable record of every injected fault, in order.
    pub fn fault_log(&self) -> Vec<String> {
        self.state.lock().unwrap().log.clone()
    }

    /// Materializes a crash image: every file created through this
    /// backend keeps its durable prefix plus a seeded random cut of the
    /// unsynced tail (the bytes the page cache may or may not have
    /// flushed). Returns `(path, durable_len, pre_crash_len, kept_len)`
    /// per file. After this, the directory contents are exactly what a
    /// post-power-loss mount could observe.
    pub fn crash(&self, seed: u64) -> io::Result<Vec<(PathBuf, u64, u64, u64)>> {
        let state = self.state.lock().unwrap();
        let mut rng = SplitMix64::new(seed ^ 0xc4a5_4c4a_5c4a_u64);
        let mut report = Vec::new();
        for (path, &durable) in &state.durable {
            let Ok(meta) = std::fs::metadata(path) else {
                continue; // removed or renamed outside tracking
            };
            let len = meta.len();
            if len > durable {
                let keep = durable + rng.below(len - durable + 1);
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(keep)?;
                f.sync_all()?;
                report.push((path.clone(), durable, len, keep));
            } else {
                report.push((path.clone(), durable, len, len));
            }
        }
        Ok(report)
    }
}

/// File handle under [`FaultFs`].
struct FaultFile {
    inner: std::fs::File,
    path: PathBuf,
    state: Arc<Mutex<State>>,
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let fault = self.state.lock().unwrap().decide(OpKind::Write);
        match fault {
            None => self.inner.write_all(buf),
            Some(f @ (Fault::Enospc | Fault::ShortWrite)) => {
                // a prefix lands before the failure — the torn-write case
                let keep = {
                    let mut s = self.state.lock().unwrap();
                    s.rng.below(buf.len() as u64) as usize
                };
                self.inner.write_all(&buf[..keep])?;
                Err(injected_err(f))
            }
            Some(f) => Err(injected_err(f)),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.sync_impl()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync_impl()
    }
}

impl FaultFile {
    fn sync_impl(&mut self) -> io::Result<()> {
        let fault = self.state.lock().unwrap().decide(OpKind::Sync);
        match fault {
            None => {
                self.inner.sync_all()?;
                let len = std::fs::metadata(&self.path)?.len();
                self.state
                    .lock()
                    .unwrap()
                    .durable
                    .insert(self.path.clone(), len);
                Ok(())
            }
            Some(Fault::FsyncLoss) => {
                // fsyncgate: the dirty pages are gone; the kernel clears
                // the error state, so future syncs of this file succeed
                // without the data ever having hit the disk
                let (durable, lie) = {
                    let s = self.state.lock().unwrap();
                    (
                        s.durable.get(&self.path).copied().unwrap_or(0),
                        s.config.lie_on_fsync,
                    )
                };
                let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
                f.set_len(durable)?;
                f.sync_all()?;
                if lie {
                    Ok(()) // the deliberately broken backend: ack the loss
                } else {
                    Err(injected_err(Fault::FsyncLoss))
                }
            }
            Some(f) => Err(injected_err(f)),
        }
    }
}

impl StorageBackend for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::CreateDirAll) {
            return Err(injected_err(f));
        }
        std::fs::create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::Create) {
            return Err(injected_err(f));
        }
        let inner = std::fs::File::create(path)?;
        self.state
            .lock()
            .unwrap()
            .durable
            .insert(path.to_path_buf(), 0);
        Ok(Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::Read) {
            return Err(injected_err(f));
        }
        std::fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::ReadDir) {
            return Err(injected_err(f));
        }
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::Rename) {
            return Err(injected_err(f));
        }
        std::fs::rename(from, to)?;
        let mut s = self.state.lock().unwrap();
        if let Some(d) = s.durable.remove(from) {
            s.durable.insert(to.to_path_buf(), d);
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::Remove) {
            return Err(injected_err(f));
        }
        std::fs::remove_file(path)?;
        self.state.lock().unwrap().durable.remove(path);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::Truncate) {
            return Err(injected_err(f));
        }
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()?;
        // the cut is synced: everything at or below it is durable now
        self.state
            .lock()
            .unwrap()
            .durable
            .insert(path.to_path_buf(), len);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if let Some(f) = self.state.lock().unwrap().decide(OpKind::SyncDir) {
            return Err(injected_err(f));
        }
        crate::StdFs.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StdFs;

    /// The durable length tracked for `path` (bytes guaranteed on disk).
    fn durable_len(fs: &FaultFs, path: impl AsRef<Path>) -> Option<u64> {
        fs.state.lock().unwrap().durable.get(path.as_ref()).copied()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_faultfs_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let dir = tmpdir("quiet");
        let fs = FaultFs::random(FaultConfig::quiet(1));
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"abc");
        assert_eq!(fs.injected_faults(), 0);
        assert_eq!(durable_len(&fs, &path), Some(3));
    }

    #[test]
    fn scripted_nth_write_fails_with_partial_bytes() {
        let dir = tmpdir("scripted");
        let fs = FaultFs::scripted(
            9,
            vec![ScriptedFault {
                op: OpKind::Write,
                nth: 1,
                fault: Fault::Enospc,
            }],
        );
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"first").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // a prefix of the failed write may have landed, never the whole
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.starts_with(b"first"));
        assert!(on_disk.len() < b"first".len() + b"second".len());
        // the schedule triggers once; the next write succeeds
        f.write_all(b"third").unwrap();
        assert_eq!(fs.injected_faults(), 1);
    }

    #[test]
    fn fsync_loss_drops_unsynced_suffix_and_reports_failure() {
        let dir = tmpdir("fsyncloss");
        let fs = FaultFs::scripted(
            5,
            vec![ScriptedFault {
                op: OpKind::Sync,
                nth: 1,
                fault: Fault::FsyncLoss,
            }],
        );
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap(); // sync #0 succeeds
        f.write_all(b"volatile").unwrap();
        assert!(f.sync_data().is_err()); // sync #1 fails, pages dropped
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        assert_eq!(durable_len(&fs, &path), Some(7));
        // fsyncgate: a later sync succeeds, but the data is gone for good
        f.sync_data().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
    }

    #[test]
    fn lying_backend_acks_the_loss() {
        let dir = tmpdir("liar");
        let mut config = FaultConfig::quiet(5);
        config.lie_on_fsync = true;
        let fs = FaultFs::random(config);
        fs.state.lock().unwrap().script = vec![(
            ScriptedFault {
                op: OpKind::Sync,
                nth: 0,
                fault: Fault::FsyncLoss,
            },
            false,
        )];
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"gone").unwrap();
        f.sync_data().unwrap(); // lies: reports success, drops the bytes
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }

    #[test]
    fn crash_keeps_durable_prefix_and_a_cut_of_the_tail() {
        let dir = tmpdir("crash");
        let fs = FaultFs::random(FaultConfig::quiet(3));
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"durable!").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"maybe-lost-tail").unwrap();
        drop(f);
        for seed in 0..20 {
            // crash is destructive; rewrite the tail each round
            std::fs::write(&path, b"durable!maybe-lost-tail").unwrap();
            let report = fs.crash(seed).unwrap();
            let (_, durable, pre, kept) = report
                .iter()
                .find(|(p, _, _, _)| p == &path)
                .expect("tracked");
            assert_eq!(*durable, 8);
            assert_eq!(*pre, 23);
            assert!((8..=23).contains(kept));
            assert_eq!(std::fs::metadata(&path).unwrap().len(), *kept);
            let on_disk = std::fs::read(&path).unwrap();
            assert!(on_disk.starts_with(b"durable!"), "durable prefix survives");
        }
    }

    #[test]
    fn rename_carries_durable_tracking() {
        let dir = tmpdir("rename");
        let fs = FaultFs::random(FaultConfig::quiet(4));
        let a = dir.join("a");
        let b = dir.join("b");
        let mut f = fs.create(&a).unwrap();
        f.write_all(b"xy").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.rename(&a, &b).unwrap();
        assert_eq!(durable_len(&fs, &a), None);
        assert_eq!(durable_len(&fs, &b), Some(2));
        StdFs.sync_dir(&dir).unwrap();
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, Vec<String>) {
            let dir = tmpdir(&format!("det-{seed}"));
            let fs = FaultFs::random(FaultConfig {
                seed,
                p_write: 0.4,
                p_sync: 0.4,
                p_meta: 0.2,
                lie_on_fsync: false,
            });
            let path = dir.join("f");
            if let Ok(mut f) = fs.create(&path) {
                for i in 0..20 {
                    let _ = f.write_all(format!("chunk{i}").as_bytes());
                    let _ = f.sync_data();
                }
            }
            let _ = fs.rename(&path, &dir.join("g"));
            (fs.injected_faults(), fs.fault_log())
        };
        let (n1, log1) = run(0xfeed);
        let (n2, log2) = run(0xfeed);
        assert_eq!(n1, n2);
        assert_eq!(log1, log2);
        assert!(n1 > 0, "40% fault rates over 40+ ops must fire");
        let (n3, _) = run(0xbeef);
        // different seed, different schedule (overwhelmingly likely)
        assert!(n3 > 0);
    }
}
