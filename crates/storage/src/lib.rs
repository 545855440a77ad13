//! # uots-storage
//!
//! The storage seam under the durable ingest path. Every byte the engine
//! persists — WAL segments, checkpoints, datasets — crosses a
//! [`StorageBackend`], so the durable pipeline can be exercised against
//! *failing* storage, not just crashes:
//!
//! * [`StdFs`] — the zero-overhead production passthrough to `std::fs`;
//! * [`fault::FaultFs`] — a deterministic, seeded fault injector (fail
//!   the Nth op, short/torn writes, fsync failure with page loss, ENOSPC,
//!   transient-then-recover) that also tracks which bytes were actually
//!   made durable so a test can materialize a worst-case crash image;
//! * [`ErrorClass`] — the transient/permanent taxonomy retry policies
//!   dispatch on;
//! * [`RetryPolicy`] — bounded exponential backoff with deterministic
//!   jitter;
//! * [`write_atomic`] — the shared tmp + fsync + rename + dir-fsync
//!   pattern, with *every* error propagated (a swallowed directory fsync
//!   is precisely the bug that decides whether a rename survived power
//!   loss).
//!
//! ## The fsyncgate rule
//!
//! A failed `fsync` does **not** mean "the data is still in the page
//! cache, try again": POSIX allows the kernel to drop the dirty pages and
//! clear the error, so a later fsync can succeed while the data is gone.
//! Consumers of this crate must therefore never re-trust buffered pages
//! after a failed sync — the WAL writer seals the segment at the last
//! known-durable boundary and starts a fresh one. [`fault::FaultFs`]
//! simulates exactly these semantics (a failed sync drops the unsynced
//! suffix), which is what lets the chaos harness prove the rule is
//! honored end to end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// An open file handle on a [`StorageBackend`]. Writers append
/// sequentially; durability is explicit via the sync calls.
pub trait StorageFile: Send {
    /// Writes the whole buffer (or fails; a failure may have written a
    /// prefix — the caller must treat the tail as suspect).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Forces file *data* to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Forces file data and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The file operations the durable path uses, abstracted so faults can be
/// injected under the WAL, checkpoint, and dataset writers.
///
/// Semantics mirror `std::fs`; [`truncate`](Self::truncate) additionally
/// syncs, because every caller that cuts a file is sealing a durable
/// boundary and must not leave the cut itself in the page cache.
pub trait StorageBackend: Send + Sync {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (truncating if present) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the entries of a directory (non-recursive, files only as
    /// stored — callers filter).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// `std::fs::rename`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// `std::fs::remove_file`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Truncates the file to `len` bytes **and syncs the cut**.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Fsyncs a directory, making renames/creates/removes in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The zero-cost production backend: a direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdFile(std::fs::File);

impl StorageFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StorageBackend for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()
    }
}

/// How a storage error should be handled by the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying with backoff: interruptions, timeouts, a full disk
    /// that an operator (or a pruning pass) may clear.
    Transient,
    /// Retrying in place cannot help: media errors, permissions, a
    /// missing directory. At most one attempt on a *fresh* segment is
    /// justified (the failure may be local to one file), then the writer
    /// must degrade rather than guess.
    Permanent,
}

impl ErrorClass {
    /// Classifies an I/O error into the retry taxonomy.
    pub fn of(e: &io::Error) -> ErrorClass {
        use io::ErrorKind::*;
        match e.kind() {
            Interrupted | WouldBlock | TimedOut | ResourceBusy | ExecutableFileBusy
            | StorageFull => ErrorClass::Transient,
            _ => ErrorClass::Permanent,
        }
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// Transient errors get the full attempt budget; permanent errors get
/// `permanent_attempts` (default 2: the original try plus one retry that —
/// in the WAL's case — lands on a freshly sealed segment, since a fault
/// can be local to one file). Backoff for attempt *n* is
/// `base · 2ⁿ` clamped to `max_backoff`, ±25 % deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts allowed for transient errors (≥ 1).
    pub transient_attempts: u32,
    /// Total attempts allowed for permanent errors (≥ 1).
    pub permanent_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Seed decorrelating jitter across writers; any value works.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            transient_attempts: 6,
            permanent_attempts: 2,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps — for tests, where the *decisions*
    /// matter and wall-clock delay is pure waste.
    pub fn without_backoff() -> Self {
        RetryPolicy {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Whether another attempt is allowed after `attempts` tries have
    /// already failed with an error of class `class`.
    pub fn allows_retry(&self, class: ErrorClass, attempts: u32) -> bool {
        match class {
            ErrorClass::Transient => attempts < self.transient_attempts,
            ErrorClass::Permanent => attempts < self.permanent_attempts,
        }
    }

    /// Backoff before retry number `attempt` (1-based), jittered ±25 %
    /// deterministically from the policy seed.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.max_backoff);
        // jitter in [-25 %, +25 %): scale by (3/4 + r/2) with r ∈ [0, 1)
        let r =
            (splitmix64(self.jitter_seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.75 + 0.5 * r)
    }
}

/// Writes `bytes` to `path` atomically through `backend`: a `.tmp`
/// sibling is written and fsynced, renamed over the target, and the
/// parent directory is fsynced so the rename itself is durable. Every
/// step's error is propagated — in particular the directory fsync, which
/// is the step that decides whether the rename survives power loss.
pub fn write_atomic(backend: &dyn StorageBackend, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = backend.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    backend.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        backend.sync_dir(dir)?;
    }
    Ok(())
}

/// CRC32 (IEEE 802.3, reflected), nibble-table variant: the one checksum
/// of WAL records, checkpoints and datasets. The workspace vendors no
/// checksum crate, and the 16-entry table is fast enough for every
/// payload size the durable path writes.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1db7_1064,
        0x3b6e_20c8,
        0x26d9_30ac,
        0x76dc_4190,
        0x6b6b_51f4,
        0x4db2_6158,
        0x5005_713c,
        0xedb8_8320,
        0xf00f_9344,
        0xd6d6_a3e8,
        0xcb61_b38c,
        0x9b64_c2b0,
        0x86d3_d2d4,
        0xa00a_e278,
        0xbdbd_f21c,
    ];
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 4) ^ TABLE[((crc ^ b as u32) & 0xf) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32 >> 4)) & 0xf) as usize];
    }
    !crc
}

/// SplitMix64 — the tiny seeded generator behind fault schedules and
/// backoff jitter (the workspace vendors `rand`, but this crate stays
/// dependency-free so every layer can use it).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A tiny deterministic RNG stream over [`splitmix64`].
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, bound)`; 0 when `bound` is 0.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_storage_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // the canonical IEEE 802.3 check value
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stdfs_round_trips() {
        let dir = tmpdir("stdfs");
        let fs = StdFs;
        let path = dir.join("a.bin");
        {
            let mut f = fs.create(&path).unwrap();
            f.write_all(b"hello ").unwrap();
            f.write_all(b"world").unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(fs.read(&path).unwrap(), b"hello world");
        fs.truncate(&path, 5).unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"hello");
        let listed = fs.read_dir(&dir).unwrap();
        assert_eq!(listed, vec![path.clone()]);
        let renamed = dir.join("b.bin");
        fs.rename(&path, &renamed).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.read(&renamed).unwrap(), b"hello");
        fs.remove_file(&renamed).unwrap();
        assert!(fs.read(&renamed).is_err());
    }

    #[test]
    fn classification_matches_the_taxonomy() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::StorageFull,
        ] {
            assert_eq!(
                ErrorClass::of(&Error::new(kind, "x")),
                ErrorClass::Transient,
                "{kind:?}"
            );
        }
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidData,
            ErrorKind::Other,
            ErrorKind::ReadOnlyFilesystem,
        ] {
            assert_eq!(
                ErrorClass::of(&Error::new(kind, "x")),
                ErrorClass::Permanent,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn retry_policy_budgets_and_backoff() {
        let p = RetryPolicy::default();
        assert!(p.allows_retry(ErrorClass::Transient, 0));
        assert!(p.allows_retry(ErrorClass::Transient, 5));
        assert!(!p.allows_retry(ErrorClass::Transient, 6));
        assert!(p.allows_retry(ErrorClass::Permanent, 1));
        assert!(!p.allows_retry(ErrorClass::Permanent, 2));
        // exponential, clamped, jitter within ±25 %
        let mut prev = Duration::ZERO;
        for attempt in 1..=8 {
            let b = p.backoff(attempt);
            assert!(b <= p.max_backoff.mul_f64(1.25), "attempt {attempt}: {b:?}");
            if attempt <= 4 {
                assert!(b >= prev.mul_f64(0.5), "should grow roughly: {b:?}");
            }
            prev = b;
        }
        // deterministic
        assert_eq!(p.backoff(3), p.backoff(3));
        assert_eq!(RetryPolicy::without_backoff().backoff(5), Duration::ZERO);
    }

    #[test]
    fn write_atomic_leaves_no_tmp_and_loads_back() {
        let dir = tmpdir("atomic");
        let path = dir.join("data.bin");
        write_atomic(&StdFs, &path, b"payload").unwrap();
        assert_eq!(StdFs.read(&path).unwrap(), b"payload");
        assert!(!path.with_extension("tmp").exists());
        // overwrites atomically
        write_atomic(&StdFs, &path, b"v2").unwrap();
        assert_eq!(StdFs.read(&path).unwrap(), b"v2");
    }

    #[test]
    fn splitmix_stream_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        let mut hits = 0;
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                hits += 1;
            }
        }
        assert!((300..700).contains(&hits), "wildly skewed: {hits}");
    }
}
