//! Checksummed, segment-rotated write-ahead log for the epoch ingest path.
//!
//! [`crate::EpochManager`] is purely in-memory: a crash loses every
//! mutation since process start. This module adds the durability layer
//! under it — every ingest/retire **batch** is encoded as one log record
//! and written (and optionally fsynced) *before* it is applied to the
//! manager, so the on-disk log is always a superset of the in-memory
//! state. Recovery replays the log's **durable prefix**: records are
//! consumed in LSN order until the first torn, truncated or
//! checksum-corrupt record, which (per standard WAL crash semantics)
//! marks the end of what durably hit the disk; everything after it is
//! discarded.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files named `wal-<first_lsn>.seg`
//! (20-digit zero-padded, so lexicographic order == LSN order):
//!
//! ```text
//! segment  = header record*
//! header   = magic "UOTSWAL1" (8 B) + u64 first_lsn
//! record   = u32 payload_len + u32 crc + u64 lsn + payload
//! payload  = u32 count + count × mutation
//! mutation = 0x00 insert: trajectory
//!          | 0x01 retire: u32 id
//! ```
//!
//! `trajectory` is the layout of [`uots_trajectory::codec`], which the
//! dataset file and the checkpoint share. All integers little-endian. The
//! CRC32 (IEEE, reflected) covers the LSN bytes plus the payload, so
//! neither can be silently damaged. LSNs are assigned per *batch*, start
//! at 1, and are strictly sequential across segment boundaries — a gap or
//! repeat is treated as corruption.
//!
//! Writers rotate to a fresh segment once the current one exceeds
//! [`WalConfig::segment_bytes`]; completed segments are immutable, which
//! is what makes pruning after a checkpoint safe ([`prune_segments`]).
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `EveryBatch` fsyncs
//! each append (a crash loses nothing acknowledged), `Interval` bounds
//! the loss window to the configured duration, `Never` leaves flushing
//! to the OS (crash-consistent but not crash-durable: the checksums still
//! guarantee recovery never applies a half-written record).
//!
//! ## Failing storage and the fsyncgate rule
//!
//! All file operations go through a [`StorageBackend`], so faults can be
//! injected underneath the writer. The writer's contract under faults:
//!
//! * **A batch is never acknowledged unless its durability step
//!   succeeded.** `append` returns `Err` on any write or (policy-required)
//!   sync failure, and `next_lsn` does not advance — a retry reuses the
//!   same LSN, so the log and the in-memory state can never disagree
//!   about which batch an LSN names.
//! * **A failed fsync permanently poisons the segment.** POSIX lets the
//!   kernel drop dirty pages and clear the error after a failed fsync, so
//!   buffered bytes must never be re-trusted. The writer *seals* the
//!   segment — truncates it to the last known-durable boundary (the cut
//!   itself is synced) — and opens a fresh segment where the durable
//!   prefix left off. Records that were appended but not yet synced
//!   (`Interval`/`Never` policies) are re-written from memory into the
//!   fresh segment under their original LSNs, so nothing the caller was
//!   told `Ok` about silently vanishes from the log.
//! * **Sealing itself can fail.** The seal plan is then retained and
//!   retried at the start of the next `append`/`sync`; until it succeeds
//!   every call fails fast.
//! * A torn write (partial record followed by an error) seals at the last
//!   record boundary instead: the prefix pages are intact, and the
//!   truncate-with-sync both cuts the garbage and makes the prefix
//!   durable.

use crate::epoch::Mutation;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uots_obs::{Counter, EventJournal, Gauge, Histogram, MetricsRegistry};
use uots_storage::{crc32, StorageBackend, StorageFile};
use uots_trajectory::codec::{decode_trajectory, encode_trajectory, DecodeError, Reader};
use uots_trajectory::TrajectoryId;

const SEGMENT_MAGIC: &[u8; 8] = b"UOTSWAL1";
/// Segment header size: magic + first_lsn. A corruption offset below this
/// means the segment header itself is damaged (the whole file is
/// unusable); at or past it, the damage is a torn record tail.
pub const HEADER_LEN: u64 = 16;
const RECORD_HEADER_LEN: usize = 16; // len + crc + lsn

/// When the log writer forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended batch: nothing acknowledged is ever
    /// lost, at the cost of one disk round-trip per batch.
    EveryBatch,
    /// Fsync at most once per interval: bounds the crash-loss window.
    Interval(Duration),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI form: `batch`, `off`, or `interval:<millis>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "batch" => Ok(FsyncPolicy::EveryBatch),
            "off" => Ok(FsyncPolicy::Never),
            _ => {
                let ms = s
                    .strip_prefix("interval:")
                    .ok_or_else(|| {
                        format!("unknown fsync policy `{s}` (want batch | interval:<ms> | off)")
                    })?
                    .parse::<u64>()
                    .map_err(|_| format!("bad interval millis in `{s}`"))?;
                Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::EveryBatch => write!(f, "batch"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "off"),
        }
    }
}

/// Writer-side configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// See [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryBatch,
        }
    }
}

/// Errors from the WAL writer and replay.
///
/// Note the asymmetry: *corruption in the log tail is not an error* for
/// [`replay`] — it terminates the durable prefix and is reported in
/// [`WalReplay::corruption`]. `Corrupt` is returned only where damage
/// makes the log unusable as a whole (e.g. a segment header of an
/// earlier, supposedly complete segment).
#[derive(Debug)]
pub enum WalError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The log structure itself is damaged beyond prefix semantics.
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

struct WalMetrics {
    appends: Counter,
    bytes: Counter,
    fsyncs: Counter,
    fsync_failures: Counter,
    sealed_segments: Counter,
    rotations: Counter,
    last_lsn: Gauge,
    durable_lsn: Gauge,
    append_micros: Histogram,
}

impl WalMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("uots_wal_appends_total", "WAL batch records appended"),
            bytes: registry.counter("uots_wal_bytes_total", "WAL bytes written (records only)"),
            fsyncs: registry.counter("uots_wal_fsyncs_total", "WAL fsync calls issued"),
            fsync_failures: registry.counter(
                "uots_wal_fsync_failures_total",
                "WAL fsync calls that failed (each poisons its segment)",
            ),
            sealed_segments: registry.counter(
                "uots_wal_sealed_segments_total",
                "WAL segments sealed after a write/fsync failure",
            ),
            rotations: registry
                .counter("uots_wal_segment_rotations_total", "WAL segment rotations"),
            last_lsn: registry.gauge("uots_wal_last_lsn", "Highest LSN appended to the WAL"),
            durable_lsn: registry.gauge(
                "uots_wal_durable_lsn",
                "Highest LSN known durable on stable storage",
            ),
            append_micros: registry.histogram(
                "uots_wal_append_micros",
                "WAL append latency (encode + write + fsync), microseconds",
            ),
        }
    }
}

/// Append-side handle to a WAL directory. Opening scans the existing log
/// (stopping at the durable prefix, like recovery does) to find the next
/// LSN, then starts a *fresh* segment — completed segments are never
/// appended to, so a torn tail from a previous crash can never swallow
/// new records.
pub struct WalWriter {
    dir: PathBuf,
    config: WalConfig,
    backend: Arc<dyn StorageBackend>,
    file: Box<dyn StorageFile>,
    segment_path: PathBuf,
    segment_len: u64,
    /// LSN of the next batch to append. Advances only on success, so a
    /// failed append's retry reuses the same LSN.
    next_lsn: u64,
    /// Segment length up to which bytes are known durable.
    durable_len: u64,
    /// One past the highest LSN known durable.
    durable_next_lsn: u64,
    /// Records appended but not yet synced (`Interval`/`Never`), kept so
    /// a seal can re-write them into a fresh segment after fsync loss.
    unsynced: Vec<(u64, Vec<u8>)>,
    /// Set when a failure requires sealing but the seal itself has not
    /// succeeded yet; retried before any further write.
    pending_seal: Option<SealPlan>,
    /// A partially-created segment left behind by a failed rotation. It
    /// must be removed before any *later* segment is created: replay
    /// stops at its bad header, and a reopen would otherwise discard
    /// every segment after it — including acked, durable records.
    stray_segment: Option<PathBuf>,
    last_sync: Instant,
    metrics: WalMetrics,
    journal: EventJournal,
}

/// The deferred-seal state: truncate the poisoned segment at the durable
/// boundary, open a fresh segment, re-write the unsynced records.
struct SealPlan {
    truncate_at: u64,
    reopen_at: u64,
    rewrite: Vec<(u64, Vec<u8>)>,
}

impl WalWriter {
    /// Opens (creating if needed) the log directory for appending through
    /// `backend` ([`StdFs`](uots_storage::StdFs) in production; fault
    /// injection goes through here), with the `registry` the `uots_wal_*`
    /// series are registered in and the `journal` rotation, sealing,
    /// stray-segment removal and fsync failures are recorded in. A `None`
    /// instrument is a detached one nothing reads.
    pub fn open(
        dir: impl AsRef<Path>,
        config: WalConfig,
        backend: Arc<dyn StorageBackend>,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Result<Self, WalError> {
        let dir = dir.as_ref();
        backend.create_dir_all(dir)?;
        let scan = replay(&*backend, dir, u64::MAX)?; // parse everything, keep nothing
        if let Some(c) = &scan.corruption {
            // Seal the durable prefix on disk: truncate the torn tail and
            // drop every later segment. Without this, records appended to
            // the new segment would sit *behind* the corruption and replay
            // (which stops at the first bad record) could never reach them.
            if c.offset >= HEADER_LEN {
                backend.truncate(&c.segment, c.offset)?;
            } else {
                backend.remove_file(&c.segment)?;
            }
            for seg in list_segments(&*backend, dir)? {
                if seg > c.segment {
                    backend.remove_file(&seg)?;
                }
            }
        }
        let next_lsn = scan.next_lsn;
        let (file, segment_path) = new_segment(&*backend, dir, next_lsn)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            config,
            backend,
            file,
            segment_path,
            segment_len: HEADER_LEN,
            next_lsn,
            durable_len: HEADER_LEN,
            durable_next_lsn: next_lsn,
            unsynced: Vec::new(),
            pending_seal: None,
            stray_segment: None,
            last_sync: Instant::now(),
            metrics: WalMetrics::register(&registry.cloned().unwrap_or_default()),
            journal: journal.cloned().unwrap_or_default(),
        })
    }

    /// The LSN the next appended batch will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The highest LSN known to be on stable storage (0 if none). Under
    /// `EveryBatch` this trails `next_lsn() - 1` only across a failure;
    /// under `Interval`/`Never` it lags by the unsynced window.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_next_lsn.saturating_sub(1)
    }

    /// Current segment path and its length in bytes after the last append
    /// (record boundaries — the crash points the recovery tests cut at).
    pub fn position(&self) -> (PathBuf, u64) {
        (self.segment_path.clone(), self.segment_len)
    }

    /// Appends one mutation batch as a single record and returns its LSN.
    /// The record is written (and fsynced per policy) before this returns,
    /// so on success the caller may apply the batch to the in-memory
    /// manager knowing recovery will replay it. On failure `next_lsn` is
    /// unchanged — retrying appends the same batch under the same LSN —
    /// and the segment has been sealed at the last trustworthy boundary
    /// (see the module docs; if sealing itself failed it is retried here
    /// before anything else is written).
    pub fn append(&mut self, batch: &[Mutation]) -> Result<u64, WalError> {
        let started = Instant::now();
        self.heal()?;
        let lsn = self.next_lsn;
        // the payload is encoded in place; its length and the crc of the
        // lsn and payload then fill the first 8 bytes
        let mut record = vec![0; 8];
        record.extend_from_slice(&lsn.to_le_bytes());
        encode_batch(batch, &mut record);
        let payload_len = (record.len() - RECORD_HEADER_LEN) as u32;
        let crc = crc32(&record[8..]);
        record[..4].copy_from_slice(&payload_len.to_le_bytes());
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        if let Err(e) = self.file.write_all(&record) {
            // Torn write: a prefix of the record may be on disk, followed
            // by nothing — but the pages before it are intact. Seal at the
            // last record boundary: the truncate cuts the garbage and its
            // sync makes the (previously unsynced) prefix durable.
            self.plan_seal(self.segment_len, lsn, Vec::new());
            let _ = self.heal(); // best effort now; retried on next call
            return Err(e.into());
        }
        self.segment_len += record.len() as u64;
        let sync_due = match self.config.fsync {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if sync_due {
            if let Err(e) = self.sync_file() {
                // Fsyncgate: every byte past durable_len may be gone and
                // must never be re-trusted. Seal at the durable boundary
                // and re-write the unsynced records (all acked under
                // Interval/Never) into a fresh segment. The current batch
                // is NOT among them: it was never acked, its LSN is
                // reused by the caller's retry.
                self.segment_len -= record.len() as u64; // logical un-append
                let rewrite = std::mem::take(&mut self.unsynced);
                self.plan_seal(self.durable_len, self.durable_next_lsn, rewrite);
                let _ = self.heal();
                return Err(e.into());
            }
            self.mark_durable_to(self.segment_len, lsn + 1);
        } else {
            self.unsynced.push((lsn, record.clone()));
        }
        self.next_lsn = lsn + 1;
        if self.segment_len >= self.config.segment_bytes {
            // The batch is already as durable as the policy promises; a
            // rotation failure must not reject it (a retry would append a
            // duplicate). Sealing machinery recovers on the next call.
            let _ = self.rotate();
        }
        self.metrics.appends.inc();
        self.metrics.bytes.add(record.len() as u64);
        self.metrics.last_lsn.set(lsn as i64);
        self.metrics
            .append_micros
            .record(started.elapsed().as_micros() as u64);
        Ok(lsn)
    }

    /// Forces everything appended so far to stable storage. On failure the
    /// segment is sealed (fsyncgate) with acked-but-unsynced records
    /// re-written to a fresh segment; see the module docs.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.heal()?;
        if self.durable_len == self.segment_len && self.durable_next_lsn == self.next_lsn {
            return Ok(()); // nothing new; don't risk a pointless fsync
        }
        if let Err(e) = self.sync_file() {
            let rewrite = std::mem::take(&mut self.unsynced);
            self.plan_seal(self.durable_len, self.durable_next_lsn, rewrite);
            let _ = self.heal();
            return Err(e.into());
        }
        self.mark_durable_to(self.segment_len, self.next_lsn);
        Ok(())
    }

    /// Raw fsync + bookkeeping; callers decide the failure semantics.
    fn sync_file(&mut self) -> std::io::Result<()> {
        match self.file.sync_data() {
            Ok(()) => {
                self.last_sync = Instant::now();
                self.metrics.fsyncs.inc();
                Ok(())
            }
            Err(e) => {
                self.metrics.fsync_failures.inc();
                self.journal.error(
                    "wal",
                    "fsync_failure",
                    &[
                        ("segment", self.segment_path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                Err(e)
            }
        }
    }

    fn mark_durable_to(&mut self, len: u64, next: u64) {
        self.durable_len = len;
        self.durable_next_lsn = next;
        self.unsynced.clear();
        self.metrics.durable_lsn.set(next.saturating_sub(1) as i64);
    }

    fn plan_seal(&mut self, truncate_at: u64, reopen_at: u64, rewrite: Vec<(u64, Vec<u8>)>) {
        debug_assert!(self.pending_seal.is_none(), "heal() runs before writes");
        self.pending_seal = Some(SealPlan {
            truncate_at,
            reopen_at,
            rewrite,
        });
    }

    /// Removes the stray segment a failed rotation left behind, if any.
    /// Must succeed before any later segment is created: replay stops at
    /// the stray's bad header, so segments behind it are unreachable and
    /// a reopen would delete them. Idempotent; a missing file counts as
    /// removed (the create itself may have been what failed).
    fn remove_stray(&mut self) -> Result<(), WalError> {
        let Some(path) = self.stray_segment.clone() else {
            return Ok(());
        };
        match self.backend.remove_file(&path) {
            Ok(()) => {
                self.stray_segment = None;
                self.journal.warn(
                    "wal",
                    "stray_segment_removed",
                    &[("segment", path.display().to_string())],
                );
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // the failed rotation never got as far as creating it
                self.stray_segment = None;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Executes a pending seal, if any. Mutates `self` only after every
    /// step succeeded, so a failed heal can be retried from scratch (the
    /// truncate and the segment re-create are idempotent).
    fn heal(&mut self) -> Result<(), WalError> {
        let Some(plan) = self.pending_seal.take() else {
            return Ok(());
        };
        // the fresh segment below must not land behind a rotation stray
        if let Err(e) = self.remove_stray() {
            self.pending_seal = Some(plan);
            return Err(e);
        }
        let result = (|| -> Result<(Box<dyn StorageFile>, PathBuf, u64), WalError> {
            self.backend
                .truncate(&self.segment_path, plan.truncate_at)?;
            let (mut file, path) = new_segment(&*self.backend, &self.dir, plan.reopen_at)?;
            let mut len = HEADER_LEN;
            for (_, rec) in &plan.rewrite {
                file.write_all(rec)?;
                len += rec.len() as u64;
            }
            if !plan.rewrite.is_empty() {
                file.sync_data()?;
            }
            Ok((file, path, len))
        })();
        match result {
            Ok((file, path, len)) => {
                let sealed = std::mem::replace(&mut self.segment_path, path);
                self.file = file;
                self.segment_len = len;
                self.mark_durable_to(len, self.next_lsn);
                self.metrics.sealed_segments.inc();
                self.journal.warn(
                    "wal",
                    "segment_sealed",
                    &[
                        ("segment", sealed.display().to_string()),
                        ("truncate_at", plan.truncate_at.to_string()),
                        ("reopen_lsn", plan.reopen_at.to_string()),
                        ("rewritten_records", plan.rewrite.len().to_string()),
                    ],
                );
                Ok(())
            }
            Err(e) => {
                self.pending_seal = Some(plan);
                Err(e)
            }
        }
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // seal the old segment: its contents must be durable before the
        // new one starts taking records, or pruning could discard the only
        // copy of a batch that never hit the disk
        self.sync()?;
        // a stray from an earlier failed rotation must be gone first, or
        // the segment created here would sit behind it, unreachable
        self.remove_stray()?;
        match new_segment(&*self.backend, &self.dir, self.next_lsn) {
            Ok((file, path)) => {
                self.file = file;
                self.segment_path = path;
                self.segment_len = HEADER_LEN;
                self.durable_len = HEADER_LEN;
                self.metrics.rotations.inc();
                self.journal.info(
                    "wal",
                    "segment_rotated",
                    &[
                        ("segment", self.segment_path.display().to_string()),
                        ("first_lsn", self.next_lsn.to_string()),
                    ],
                );
                Ok(())
            }
            Err(e) => {
                // new_segment may have created the file before its header
                // write/sync failed; while it exists under a wal-*.seg
                // name, replay stops at its bad header. Remove it — now if
                // possible, else before the next segment is created.
                self.stray_segment = Some(segment_path(&self.dir, self.next_lsn));
                self.journal.warn(
                    "wal",
                    "rotation_failed",
                    &[
                        (
                            "stray",
                            segment_path(&self.dir, self.next_lsn).display().to_string(),
                        ),
                        ("error", e.to_string()),
                    ],
                );
                let _ = self.remove_stray(); // best effort; retried later
                Err(e)
            }
        }
    }
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.seg"))
}

fn new_segment(
    backend: &dyn StorageBackend,
    dir: &Path,
    first_lsn: u64,
) -> Result<(Box<dyn StorageFile>, PathBuf), WalError> {
    let path = segment_path(dir, first_lsn);
    let mut file = backend.create(&path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&first_lsn.to_le_bytes())?;
    file.sync_data()?;
    Ok((file, path))
}

/// Lists the segment files of `dir` in LSN order, through `backend`.
pub fn list_segments(backend: &dyn StorageBackend, dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let mut segs: Vec<PathBuf> = Vec::new();
    match backend.read_dir(dir) {
        Ok(entries) => {
            for p in entries {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.starts_with("wal-") && name.ends_with(".seg") {
                    segs.push(p);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    // zero-padded first LSNs make lexicographic order numeric order
    segs.sort();
    Ok(segs)
}

/// Where and why replay stopped before the physical end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Segment containing the first bad record.
    pub segment: PathBuf,
    /// Byte offset of that record within the segment.
    pub offset: u64,
    /// Human-readable cause (torn record, crc mismatch, bad lsn, …).
    pub reason: String,
}

/// Result of scanning a log directory.
#[derive(Debug)]
pub struct WalReplay {
    /// Replayable batches `(lsn, mutations)` with `lsn > after_lsn`, in
    /// LSN order.
    pub batches: Vec<(u64, Vec<Mutation>)>,
    /// One past the highest durable LSN (what a new writer continues at).
    pub next_lsn: u64,
    /// Set when the scan stopped at a damaged record; everything before
    /// it is the durable prefix, everything after was discarded.
    pub corruption: Option<Corruption>,
}

/// Scans the log directory through `backend` and returns every durable
/// batch with LSN strictly greater than `after_lsn` (pass a checkpoint's
/// high-water mark, or 0 for everything).
///
/// Corruption mid-log terminates the scan — later records, even if they
/// checksum correctly, were written after something that never became
/// durable and must not be applied (the log is only meaningful as a
/// prefix). The cut point is reported in [`WalReplay::corruption`].
pub fn replay(
    backend: &dyn StorageBackend,
    dir: &Path,
    after_lsn: u64,
) -> Result<WalReplay, WalError> {
    let mut batches = Vec::new();
    let mut next_lsn: u64 = 1;
    let mut corruption = None;
    let mut expect_lsn: Option<u64> = None;
    'segments: for seg in list_segments(backend, dir)? {
        let raw = backend.read(&seg)?;
        let Some(first_lsn) = first_lsn(&raw) else {
            corruption = Some(Corruption {
                segment: seg,
                offset: 0,
                reason: "bad or truncated segment header".into(),
            });
            break 'segments;
        };
        // the first segment may start anywhere (older ones get pruned);
        // later ones must continue exactly where the previous left off
        if let Some(expected) = expect_lsn {
            if first_lsn != expected {
                corruption = Some(Corruption {
                    segment: seg,
                    offset: 8,
                    reason: format!("segment claims first lsn {first_lsn}, expected {expected}"),
                });
                break 'segments;
            }
        }
        let mut pos = HEADER_LEN as usize;
        let mut lsn = first_lsn;
        while pos < raw.len() {
            match decode_record(&raw[pos..], lsn) {
                Ok((mutations, consumed)) => {
                    if lsn > after_lsn {
                        batches.push((lsn, mutations));
                    }
                    pos += consumed;
                    lsn += 1;
                }
                Err(reason) => {
                    corruption = Some(Corruption {
                        segment: seg,
                        offset: pos as u64,
                        reason,
                    });
                    next_lsn = lsn;
                    break 'segments;
                }
            }
        }
        next_lsn = lsn;
        expect_lsn = Some(lsn);
    }
    Ok(WalReplay {
        batches,
        next_lsn,
        corruption,
    })
}

/// Deletes segments made fully redundant by a checkpoint at `upto_lsn`: a
/// segment may go once the *next* segment's first LSN shows every record
/// in it is `<= upto_lsn`. The newest segment is always kept (it anchors
/// `next_lsn` for future writers). Returns the number of segments removed.
/// Files are read and removed through `backend`.
pub fn prune_segments(
    backend: &dyn StorageBackend,
    dir: &Path,
    upto_lsn: u64,
) -> Result<usize, WalError> {
    let segs = list_segments(backend, dir)?;
    let mut removed = 0;
    for pair in segs.windows(2) {
        let Some(next_first) = backend.read(&pair[1]).ok().and_then(|raw| first_lsn(&raw)) else {
            break; // damaged header: leave everything for recovery to report
        };
        if next_first != 0 && next_first - 1 <= upto_lsn {
            backend.remove_file(&pair[0])?;
            removed += 1;
        } else {
            break; // segments are ordered; nothing later can be prunable
        }
    }
    Ok(removed)
}

/// The first LSN a segment's header names; `None` if the header is
/// damaged or truncated.
fn first_lsn(segment: &[u8]) -> Option<u64> {
    let (magic, lsn) = segment.get(..HEADER_LEN as usize)?.split_at(8);
    (magic == SEGMENT_MAGIC).then(|| u64::from_le_bytes(lsn.try_into().expect("8 bytes")))
}

/// Decodes one record at the start of `buf`, expecting `expect_lsn`.
/// Returns the mutations and the bytes consumed, or the corruption reason.
fn decode_record(buf: &[u8], expect_lsn: u64) -> Result<(Vec<Mutation>, usize), String> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(format!(
            "torn record header: {} of {RECORD_HEADER_LEN} bytes",
            buf.len()
        ));
    }
    let payload_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = RECORD_HEADER_LEN.saturating_add(payload_len as usize);
    if buf.len() < total {
        return Err(format!("torn record: {} of {total} bytes", buf.len()));
    }
    let crc_input = &buf[8..total]; // lsn bytes + payload
    let actual = crc32(crc_input);
    if actual != stored_crc {
        return Err(format!(
            "crc mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    let lsn = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if lsn != expect_lsn {
        return Err(format!("lsn {lsn} out of sequence, expected {expect_lsn}"));
    }
    let mutations = decode_batch(&buf[16..total]).map_err(|e| e.to_string())?;
    Ok((mutations, total))
}

fn encode_batch(batch: &[Mutation], out: &mut Vec<u8>) {
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for m in batch {
        match m {
            Mutation::Insert(t) => {
                out.push(0x00);
                encode_trajectory(t, out);
            }
            Mutation::Retire(id) => {
                out.push(0x01);
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
    }
}

fn decode_batch(buf: &[u8]) -> Result<Vec<Mutation>, DecodeError> {
    let mut r = Reader::new(buf);
    // the smallest mutation is a retire: its tag and a u32 id
    let count = r.count(5, "batch count")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8("mutation tag")?;
        out.push(match tag {
            // the WAL does not know the network; recovery checks each
            // insert against the one it replays onto
            0x00 => Mutation::Insert(decode_trajectory(&mut r, usize::MAX, usize::MAX)?),
            0x01 => Mutation::Retire(TrajectoryId(r.u32("retire id")?)),
            _ => {
                return Err(DecodeError::Invalid(format!(
                    "unknown mutation tag {tag:#04x}"
                )))
            }
        });
    }
    r.end("the batch payload")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use uots_network::NodeId;
    use uots_storage::fault::{Fault, FaultConfig, FaultFs, OpKind, ScriptedFault};
    use uots_storage::StdFs;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::{Sample, Trajectory};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_wal_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn traj(nodes: &[u32], kw: &[u32]) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: 60.0 * i as f64,
                })
                .collect(),
            KeywordSet::from_ids(kw.iter().map(|&k| KeywordId(k))),
        )
        .unwrap()
    }

    fn batches() -> Vec<Vec<Mutation>> {
        vec![
            vec![
                Mutation::Insert(traj(&[0, 1, 2], &[1, 3])),
                Mutation::Insert(traj(&[5, 6], &[2])),
            ],
            vec![Mutation::Retire(TrajectoryId(0))],
            vec![
                Mutation::Insert(traj(&[7], &[])),
                Mutation::Retire(TrajectoryId(1)),
                Mutation::Insert(traj(&[8, 9, 10], &[4, 5, 6])),
            ],
        ]
    }

    fn mutations_eq(a: &Mutation, b: &Mutation) -> bool {
        match (a, b) {
            (Mutation::Insert(x), Mutation::Insert(y)) => x == y,
            (Mutation::Retire(x), Mutation::Retire(y)) => x == y,
            _ => false,
        }
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("batch"), Ok(FsyncPolicy::EveryBatch));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:fast").is_err());
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap().to_string(),
            "interval:250"
        );
        assert_eq!(FsyncPolicy::EveryBatch.to_string(), "batch");
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("round_trip");
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        assert_eq!(w.next_lsn(), 1);
        for (i, b) in batches().iter().enumerate() {
            assert_eq!(w.append(b).unwrap(), i as u64 + 1);
        }
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.next_lsn, 4);
        assert_eq!(r.batches.len(), 3);
        for ((lsn, got), (i, want)) in r.batches.iter().zip(batches().iter().enumerate()) {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!(mutations_eq(g, w));
            }
        }
        // after_lsn filters the prefix out
        let r = replay(&StdFs, &dir, 2).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].0, 3);
        // an empty directory replays to nothing
        let r = replay(&StdFs, &tmpdir("empty"), 0).unwrap();
        assert!(r.batches.is_empty());
        assert_eq!(r.next_lsn, 1);
    }

    /// A batch declaring `u32::MAX` mutations is refused by its count
    /// before the mutation vector is sized by it, as is any payload whose
    /// bytes do not decode exactly.
    #[test]
    fn batch_decode_is_bounded_and_exact() {
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0x01, 0, 0, 0, 0]);
        assert_eq!(
            decode_batch(&huge).unwrap_err(),
            DecodeError::Truncated("batch count")
        );
        for batch in batches() {
            let mut bytes = Vec::new();
            encode_batch(&batch, &mut bytes);
            let back = decode_batch(&bytes).unwrap();
            assert_eq!(back.len(), batch.len());
            assert!(back.iter().zip(&batch).all(|(g, w)| mutations_eq(g, w)));
            for cut in 0..bytes.len() {
                assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut tagged = bytes.clone();
            tagged[4] = 0x02;
            assert!(matches!(
                decode_batch(&tagged),
                Err(DecodeError::Invalid(_))
            ));
            let mut trailing = bytes;
            trailing.push(0);
            assert!(matches!(
                decode_batch(&trailing),
                Err(DecodeError::Invalid(_))
            ));
        }
    }

    #[test]
    fn reopen_continues_the_lsn_sequence() {
        let dir = tmpdir("reopen");
        {
            let mut w =
                WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
            w.append(&batches()[0]).unwrap();
            w.append(&batches()[1]).unwrap();
        }
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        assert_eq!(w.next_lsn(), 3);
        w.append(&batches()[2]).unwrap();
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.batches.len(), 3);
        assert_eq!(r.next_lsn, 4);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmpdir("rotation");
        let cfg = WalConfig {
            segment_bytes: 64, // rotate after every record
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::open(&dir, cfg, Arc::new(StdFs), None, None).unwrap();
        for b in batches() {
            w.append(&b).unwrap();
        }
        drop(w);
        let segs = list_segments(&StdFs, &dir).unwrap();
        assert!(segs.len() >= 3, "expected rotation, got {segs:?}");
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.batches.len(), 3);
    }

    #[test]
    fn torn_tail_ends_the_durable_prefix() {
        let dir = tmpdir("torn");
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        let mut boundaries = vec![w.position().1];
        for b in batches() {
            w.append(&b).unwrap();
            boundaries.push(w.position().1);
        }
        let (seg, full) = w.position();
        drop(w);
        let raw = fs::read(&seg).unwrap();
        assert_eq!(raw.len() as u64, full);
        // cut mid-record between every pair of boundaries
        for i in 1..boundaries.len() {
            for cut in [boundaries[i - 1] + 1, boundaries[i] - 1] {
                fs::write(&seg, &raw[..cut as usize]).unwrap();
                let r = replay(&StdFs, &dir, 0).unwrap();
                assert_eq!(r.batches.len(), i - 1, "cut at {cut}");
                assert_eq!(r.next_lsn, i as u64, "cut at {cut}");
                assert!(r.corruption.is_some(), "cut at {cut}");
            }
            // cutting exactly at a boundary keeps the full prefix, clean
            fs::write(&seg, &raw[..boundaries[i] as usize]).unwrap();
            let r = replay(&StdFs, &dir, 0).unwrap();
            assert_eq!(r.batches.len(), i);
            assert!(r.corruption.is_none());
        }
        fs::write(&seg, &raw).unwrap();
    }

    #[test]
    fn bit_flips_are_caught_and_end_the_prefix() {
        let dir = tmpdir("flip");
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        let mut boundaries = vec![w.position().1];
        for b in batches() {
            w.append(&b).unwrap();
            boundaries.push(w.position().1);
        }
        let (seg, _) = w.position();
        drop(w);
        let raw = fs::read(&seg).unwrap();
        // flip one bit inside record 2 (payload region): records 1 survives,
        // records 2 and 3 are discarded even though record 3 is intact
        let pos = boundaries[1] as usize + RECORD_HEADER_LEN + 2;
        let mut mutated = raw.clone();
        mutated[pos] ^= 0x08;
        fs::write(&seg, &mutated).unwrap();
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert_eq!(r.batches.len(), 1, "only the prefix before the flip");
        assert_eq!(r.next_lsn, 2);
        let c = r.corruption.expect("flip must be reported");
        assert_eq!(c.offset, boundaries[1]);
        assert!(c.reason.contains("crc mismatch"), "{}", c.reason);
        // flipping the stored lsn is also caught (it's under the crc)
        let mut mutated = raw.clone();
        mutated[boundaries[0] as usize + 8] ^= 0x01;
        fs::write(&seg, &mutated).unwrap();
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.batches.is_empty());
        assert!(r.corruption.is_some());
    }

    #[test]
    fn reopen_after_torn_tail_truncates_and_continues() {
        let dir = tmpdir("reopen_torn");
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        let mut boundaries = vec![w.position().1];
        for b in batches() {
            w.append(&b).unwrap();
            boundaries.push(w.position().1);
        }
        let (seg, _) = w.position();
        drop(w);
        // tear the third record mid-write
        let raw = fs::read(&seg).unwrap();
        fs::write(&seg, &raw[..boundaries[3] as usize - 3]).unwrap();
        // a new writer must seal the durable prefix (truncate the tear) and
        // continue at lsn 3; its appends must be reachable by replay
        let mut w =
            WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        assert_eq!(w.next_lsn(), 3);
        assert_eq!(w.append(&batches()[2]).unwrap(), 3);
        drop(w);
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 3);
        assert_eq!(r.batches[2].0, 3);
        assert_eq!(r.next_lsn, 4);
    }

    #[test]
    fn damaged_segment_header_stops_the_scan() {
        let dir = tmpdir("header");
        let cfg = WalConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::open(&dir, cfg, Arc::new(StdFs), None, None).unwrap();
        for b in batches() {
            w.append(&b).unwrap();
        }
        drop(w);
        let segs = list_segments(&StdFs, &dir).unwrap();
        let mut raw = fs::read(&segs[1]).unwrap();
        raw[0] ^= 0xff; // destroy the magic of the second segment
        fs::write(&segs[1], &raw).unwrap();
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert_eq!(r.batches.len(), 1, "only the first segment's record");
        assert!(r.corruption.is_some());
    }

    #[test]
    fn prune_removes_only_fully_checkpointed_segments() {
        let dir = tmpdir("prune");
        let cfg = WalConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::open(&dir, cfg, Arc::new(StdFs), None, None).unwrap();
        for b in batches() {
            w.append(&b).unwrap();
        }
        drop(w);
        let before = list_segments(&StdFs, &dir).unwrap().len();
        assert_eq!(
            prune_segments(&StdFs, &dir, 0).unwrap(),
            0,
            "nothing checkpointed"
        );
        // checkpoint at lsn 2: segments holding only lsns <= 2 may go
        let removed = prune_segments(&StdFs, &dir, 2).unwrap();
        assert!(removed >= 1, "expected pruning below lsn 2");
        assert_eq!(list_segments(&StdFs, &dir).unwrap().len(), before - removed);
        let r = replay(&StdFs, &dir, 2).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.batches.len(), 1, "lsn 3 must survive pruning");
        assert_eq!(r.next_lsn, 4);
    }

    #[test]
    fn failed_sync_never_acks_seals_and_new_segment_is_replayable() {
        let dir = tmpdir("fsync_fail");
        // sync #0 = new-segment header sync, #1 = first append, #2 = the
        // victim: fails with fsyncgate page loss
        let fs = FaultFs::scripted(
            11,
            vec![ScriptedFault {
                op: OpKind::Sync,
                nth: 2,
                fault: Fault::FsyncLoss,
            }],
        );
        let mut w = WalWriter::open(&dir, WalConfig::default(), fs, None, None).unwrap();
        assert_eq!(w.append(&batches()[0]).unwrap(), 1);
        let err = w.append(&batches()[1]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        // never acked: the LSN was not consumed, durability didn't move
        assert_eq!(w.next_lsn(), 2);
        assert_eq!(w.durable_lsn(), 1);
        // the segment was sealed and a fresh one opened straight away
        assert!(w.pending_seal.is_none());
        // the retry lands in the new segment under the same LSN
        assert_eq!(w.append(&batches()[1]).unwrap(), 2);
        assert_eq!(w.durable_lsn(), 2);
        drop(w);
        assert!(
            list_segments(&StdFs, &dir).unwrap().len() >= 2,
            "sealing must have opened a fresh segment"
        );
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 2);
        for ((lsn, got), (i, want)) in r.batches.iter().zip(batches().iter().enumerate()) {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!(mutations_eq(g, w));
            }
        }
    }

    #[test]
    fn failed_rotation_never_strands_a_partial_segment() {
        // A rotation whose new_segment fails partway (create succeeds,
        // header write fails) must not leave the partial wal-N file
        // behind: later segments would be created *behind* it, replay
        // would stop at its bad header, and a reopen would delete those
        // later segments — losing acked, durable records.
        let dir = tmpdir("stray_rotation");
        let cfg = WalConfig {
            segment_bytes: 64, // rotate after every record
            fsync: FsyncPolicy::EveryBatch,
        };
        // Writes: #0/#1 open's header, #2 record 1, #3/#4 rotation header,
        // #5 record 2, #6 = the victim: the magic write of the rotation
        // after record 2. Remove #0 is the immediate stray cleanup — fail
        // it too, so the stray must survive until the *next* rotation's
        // cleanup (Remove #1).
        let fs = FaultFs::scripted(
            41,
            vec![
                ScriptedFault {
                    op: OpKind::Write,
                    nth: 6,
                    fault: Fault::Permanent,
                },
                ScriptedFault {
                    op: OpKind::Remove,
                    nth: 0,
                    fault: Fault::Transient,
                },
            ],
        );
        let mut w = WalWriter::open(&dir, cfg, fs, None, None).unwrap();
        // four appends of the large batch (its record tops segment_bytes,
        // so every append rotates); the rotation failure after lsn 2 must
        // stay invisible (the batch was already durable when it struck)
        for lsn in 1..=4 {
            assert_eq!(w.append(&batches()[0]).unwrap(), lsn);
        }
        assert_eq!(w.durable_lsn(), 4);
        drop(w);
        // the stray wal-3 file is gone, not stranded mid-sequence
        assert!(
            !segment_path(&dir, 3).exists(),
            "partial rotation segment must have been removed"
        );
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 4);
        assert_eq!(r.next_lsn, 5);
        // and a reopen (the step that deletes segments behind corruption)
        // still sees every acked batch
        let w = WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        assert_eq!(w.next_lsn(), 5, "acked lsn 4 must survive reopen");
    }

    #[test]
    fn torn_write_seals_at_record_boundary_and_retry_succeeds() {
        let dir = tmpdir("torn_write");
        // writes #0/#1 = segment header; #2 = first record; #3 = victim
        let fs = FaultFs::scripted(
            23,
            vec![ScriptedFault {
                op: OpKind::Write,
                nth: 3,
                fault: Fault::ShortWrite,
            }],
        );
        let mut w = WalWriter::open(&dir, WalConfig::default(), fs, None, None).unwrap();
        assert_eq!(w.append(&batches()[0]).unwrap(), 1);
        assert!(w.append(&batches()[1]).is_err());
        assert_eq!(w.next_lsn(), 2, "failed append must not consume the LSN");
        assert!(w.pending_seal.is_none());
        assert_eq!(w.append(&batches()[1]).unwrap(), 2);
        drop(w);
        // the partial record was cut; both batches replay cleanly
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.next_lsn, 3);
    }

    #[test]
    fn acked_unsynced_records_survive_fsync_loss() {
        // Under Never, appends are acked without syncing. An explicit
        // sync that fails with page loss must not lose those acked
        // records: they are re-written into the fresh segment.
        let dir = tmpdir("rewrite");
        let cfg = WalConfig {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::Never,
        };
        // sync #0 = header sync; #1 = the explicit sync() below
        let fs = FaultFs::scripted(
            31,
            vec![ScriptedFault {
                op: OpKind::Sync,
                nth: 1,
                fault: Fault::FsyncLoss,
            }],
        );
        let mut w = WalWriter::open(&dir, cfg, fs, None, None).unwrap();
        assert_eq!(w.append(&batches()[0]).unwrap(), 1);
        assert_eq!(w.append(&batches()[1]).unwrap(), 2);
        assert_eq!(w.durable_lsn(), 0, "nothing synced yet");
        assert!(w.sync().is_err());
        // the seal re-wrote both acked records durably
        assert!(w.pending_seal.is_none());
        assert_eq!(w.durable_lsn(), 2);
        assert_eq!(w.append(&batches()[2]).unwrap(), 3);
        w.sync().unwrap();
        drop(w);
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 3);
        assert_eq!(r.next_lsn, 4);
    }

    #[test]
    fn transient_faults_leave_writer_usable_and_log_clean() {
        let dir = tmpdir("transient");
        let fs = FaultFs::scripted(
            7,
            vec![
                ScriptedFault {
                    op: OpKind::Write,
                    nth: 2,
                    fault: Fault::Transient,
                },
                ScriptedFault {
                    op: OpKind::Sync,
                    nth: 3,
                    fault: Fault::Transient,
                },
            ],
        );
        let mut w = WalWriter::open(&dir, WalConfig::default(), fs, None, None).unwrap();
        // both injected failures reject one call; immediate retry works
        let mut appended = 0u64;
        for b in batches() {
            loop {
                match w.append(&b) {
                    Ok(lsn) => {
                        appended += 1;
                        assert_eq!(lsn, appended);
                        break;
                    }
                    Err(WalError::Io(_)) => continue,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
        drop(w);
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none(), "{:?}", r.corruption);
        assert_eq!(r.batches.len(), 3);
    }

    #[test]
    fn writer_under_quiet_fault_backend_matches_stdfs() {
        let dir = tmpdir("quiet_backend");
        let fs = FaultFs::random(FaultConfig::quiet(1));
        let mut w = WalWriter::open(&dir, WalConfig::default(), fs, None, None).unwrap();
        for b in batches() {
            w.append(&b).unwrap();
        }
        drop(w);
        let r = replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.batches.len(), 3);
    }
}
