//! Durable live ingest: WAL + checkpoints + crash recovery over the epoch
//! subsystem.
//!
//! This module ties the three layers together:
//!
//! * [`core::wal`](uots_core::wal) — the checksummed, segment-rotated
//!   write-ahead log every mutation batch hits *before* it is applied;
//! * [`datagen::persist`](uots_datagen::persist) checkpoints — periodic
//!   [`Checkpoint`] snapshots of the master store + liveness mask, stamped
//!   with the WAL high-water mark they contain;
//! * [`EpochManager::from_parts`] — rebuilding a serving manager from
//!   checkpoint + WAL tail after a crash.
//!
//! [`DurableIngest`] is one lineage directory's shard unit. Nothing opens
//! it on its own: [`ShardedDurable`](crate::cluster::ShardedDurable) is
//! the one way to create or resume a lineage, at one shard as at many.
//!
//! ## Invariants
//!
//! 1. **Log before apply.** [`DurableIngest::apply`] appends (and fsyncs,
//!    per policy) the batch before touching the in-memory manager, so the
//!    on-disk log is always a superset of the applied state.
//! 2. **Checkpoints sit on publish boundaries.** A checkpoint is cut only
//!    right after [`DurableIngest::publish`], from the freshly published
//!    snapshot, stamped with the last LSN appended before the publish —
//!    at that moment snapshot state ≡ durable state through that LSN.
//! 3. **Recovery = checkpoint ⊕ WAL tail, decided once.**
//!    `RecoveryPlan::scan` is the one decision: it scans the WAL once
//!    and takes the newest checkpoint that loads *and* whose surviving
//!    tail continues at its lsn + 1 (falling back to older ones, then to
//!    the base dataset at LSN 0 unless the tail is gapped there too).
//!    [`recover`] replays that plan into a manager whose first snapshot
//!    answers queries bit-identically to a from-scratch rebuild of that
//!    prefix — the property `tests/wal_recovery.rs` proves at every crash
//!    point — and [`scrub`](crate::scrub) reports the same plan, so
//!    `uots status` says what `uots recover` will do.
//!
//! ## Failing storage: retry, then degrade — never lie
//!
//! Every file operation goes through a
//! [`uots_core::storage::StorageBackend`], and WAL append
//! failures are handled by class ([`uots_core::storage::ErrorClass`]):
//!
//! * **Transient** errors (interrupt, timeout, ENOSPC an operator might
//!   clear) are retried with bounded exponential backoff + jitter under a
//!   [`RetryPolicy`]. Each retry reuses the same LSN — the WAL writer
//!   advances it only on success — so a retry can never duplicate a batch.
//! * **Permanent** errors get at most one retry (which, after the WAL's
//!   sealing, lands on a *fresh* segment — the failure may be local to one
//!   file), then the ingest flips to the terminal
//!   [`Degraded`](IngestState::Degraded) state: queries keep serving the
//!   last published snapshot, every mutation is rejected with
//!   [`DurableError::ReadOnly`], and the state is visible in
//!   `uots_durable_*` metrics and [`DurableIngest::status`].
//! * **Checkpoint failures never degrade** ingest: the WAL alone carries
//!   full durability; a failed checkpoint is counted, surfaced in
//!   status, and retried at the next cadence point.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use uots_core::shard::RouteError;
use uots_core::storage::{ErrorClass, RetryPolicy, StorageBackend};
use uots_core::wal::{self, Corruption, WalConfig, WalError, WalWriter};
use uots_core::{EpochManager, EpochSnapshot, Mutation};
use uots_datagen::persist::{self, Checkpoint, PersistError};
use uots_datagen::Dataset;
use uots_network::RoadNetwork;
use uots_obs::{EventJournal, MetricsRegistry};
use uots_text::Vocabulary;
use uots_trajectory::codec::check_ids;
use uots_trajectory::{LiveSet, TrajectoryId, TrajectoryStore};

/// Errors from the durable ingest path.
#[derive(Debug)]
pub enum DurableError {
    /// The write-ahead log failed (I/O or structural corruption).
    Wal(WalError),
    /// Checkpoint serialization/validation failed.
    Persist(PersistError),
    /// The log is internally inconsistent in a way checksums cannot
    /// excuse (e.g. a CRC-valid retire of an id the store never issued).
    Inconsistent(String),
    /// The ingest is in read-only degraded mode: durability cannot be
    /// guaranteed, so mutations are rejected. Queries keep serving the
    /// last published snapshot.
    ReadOnly {
        /// Why the ingest degraded (the original storage failure).
        reason: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "wal: {e}"),
            DurableError::Persist(e) => write!(f, "checkpoint: {e}"),
            DurableError::Inconsistent(m) => write!(f, "inconsistent log: {m}"),
            DurableError::ReadOnly { reason } => {
                write!(f, "ingest degraded to read-only: {reason}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

/// A cluster's routing refusals: an unknown id is an inconsistent request,
/// a cluster with every shard degraded is read-only.
impl From<RouteError> for DurableError {
    fn from(e: RouteError) -> Self {
        match e {
            RouteError::UnknownId(_) => DurableError::Inconsistent(e.to_string()),
            RouteError::NoWritableShard => DurableError::ReadOnly {
                reason: e.to_string(),
            },
        }
    }
}

struct DurableMetrics {
    checkpoints: uots_obs::Counter,
    checkpoint_micros: uots_obs::Histogram,
    pruned_segments: uots_obs::Counter,
    retries: uots_obs::Counter,
    append_failures: uots_obs::Counter,
    checkpoint_failures: uots_obs::Counter,
    prune_failures: uots_obs::Counter,
    degraded: uots_obs::Gauge,
    rejected_mutations: uots_obs::Counter,
}

impl DurableMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        DurableMetrics {
            checkpoints: registry.counter("uots_checkpoints_total", "Checkpoints written"),
            checkpoint_micros: registry.histogram(
                "uots_checkpoint_micros",
                "Checkpoint write latency (serialize + fsync + rename), microseconds",
            ),
            pruned_segments: registry.counter(
                "uots_wal_pruned_segments_total",
                "WAL segments deleted after being covered by a checkpoint",
            ),
            retries: registry.counter(
                "uots_durable_retries_total",
                "WAL append attempts retried after a storage error",
            ),
            append_failures: registry.counter(
                "uots_durable_append_failures_total",
                "WAL appends that failed after exhausting the retry budget",
            ),
            checkpoint_failures: registry.counter(
                "uots_durable_checkpoint_failures_total",
                "Checkpoint writes that failed (retried at the next cadence)",
            ),
            prune_failures: registry.counter(
                "uots_durable_prune_failures_total",
                "Segment prunes that failed after the covering checkpoint landed",
            ),
            degraded: registry.gauge(
                "uots_durable_degraded",
                "1 when ingest is read-only degraded, else 0",
            ),
            rejected_mutations: registry.counter(
                "uots_durable_rejected_mutations_total",
                "Mutations rejected because ingest is degraded",
            ),
        }
    }
}

/// Write-path health of a [`DurableIngest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestState {
    /// Accepting mutations.
    Healthy,
    /// Terminal read-only state: a storage failure exhausted its retry
    /// budget. Queries serve the last published snapshot; every mutation
    /// is rejected with [`DurableError::ReadOnly`]. Recovery is operator
    /// action: fix the storage, restart, `recover()`.
    Degraded {
        /// The storage failure that tripped it.
        reason: String,
    },
}

/// A point-in-time health summary for operators ([`DurableIngest::status`],
/// surfaced by `uots status`).
#[derive(Debug, Clone)]
pub struct DurableStatus {
    /// Write-path state.
    pub state: IngestState,
    /// LSN the next batch would receive.
    pub next_lsn: u64,
    /// Highest LSN known durable on stable storage.
    pub durable_lsn: u64,
    /// High-water mark of the last checkpoint written (0 = none).
    pub last_checkpoint_lsn: u64,
    /// Batches applied since that checkpoint.
    pub batches_since_checkpoint: u64,
    /// Checkpoint writes that failed since startup.
    pub checkpoint_failures: u64,
    /// The most recent checkpoint failure, if any.
    pub last_checkpoint_error: Option<String>,
    /// Segment prunes that failed after their checkpoint landed. Benign
    /// (extra log stays on disk; retried at the next checkpoint) but
    /// worth watching: a persistent cause means unbounded log growth.
    pub prune_failures: u64,
    /// The most recent prune failure, if any.
    pub last_prune_error: Option<String>,
}

impl serde::Serialize for DurableStatus {
    fn serialize(&self) -> serde::Content {
        use serde::Content;
        fn opt(s: &Option<String>) -> Content {
            match s {
                Some(v) => Content::Str(v.clone()),
                None => Content::Null,
            }
        }
        let (state, reason) = match &self.state {
            IngestState::Healthy => ("healthy", None),
            IngestState::Degraded { reason } => ("degraded", Some(reason.clone())),
        };
        Content::Map(vec![
            ("state".to_string(), Content::Str(state.to_string())),
            (
                "degraded_reason".to_string(),
                match reason {
                    Some(r) => Content::Str(r),
                    None => Content::Null,
                },
            ),
            ("next_lsn".to_string(), Content::U64(self.next_lsn)),
            ("durable_lsn".to_string(), Content::U64(self.durable_lsn)),
            (
                "last_checkpoint_lsn".to_string(),
                Content::U64(self.last_checkpoint_lsn),
            ),
            (
                "batches_since_checkpoint".to_string(),
                Content::U64(self.batches_since_checkpoint),
            ),
            (
                "checkpoint_failures".to_string(),
                Content::U64(self.checkpoint_failures),
            ),
            (
                "last_checkpoint_error".to_string(),
                opt(&self.last_checkpoint_error),
            ),
            (
                "prune_failures".to_string(),
                Content::U64(self.prune_failures),
            ),
            ("last_prune_error".to_string(), opt(&self.last_prune_error)),
        ])
    }
}

/// Write-side handle combining an [`EpochManager`] with its WAL and
/// checkpoint policy. Methods take `&mut self`: the durable path is
/// single-writer by construction (the manager itself additionally
/// serializes internally).
pub struct DurableIngest {
    manager: EpochManager,
    wal: WalWriter,
    dir: PathBuf,
    vocab: Vocabulary,
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
    /// `Some(reason)` once the ingest has degraded to read-only.
    degraded: Option<String>,
    /// Cut a checkpoint after this many batches (`None` = never).
    checkpoint_every: Option<u64>,
    batches_since_checkpoint: u64,
    last_checkpoint_lsn: u64,
    checkpoint_failures: u64,
    last_checkpoint_error: Option<String>,
    prune_failures: u64,
    last_prune_error: Option<String>,
    metrics: DurableMetrics,
    journal: EventJournal,
}

impl DurableIngest {
    /// Starts a fresh log in `dir` for a manager seeded with `(network,
    /// store, vocab)`, everything live. `dir` holds both the WAL segments
    /// and the checkpoints. The *base* state is **not** logged: callers
    /// must retain it or cut a checkpoint (as
    /// [`ShardedDurable`](crate::cluster::ShardedDurable) does at two
    /// shards and more) for recovery.
    ///
    /// Every file operation goes through `backend` (fault injection goes
    /// through here), append failures are retried under `retry`, the
    /// `uots_durable_*`, `uots_wal_*` and `uots_epoch_*` series land in
    /// `registry`, and retries, degradations, checkpoint outcomes, seals
    /// and snapshot swaps in `journal` as one timeline. A `None`
    /// instrument is a detached one nothing reads.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        network: Arc<RoadNetwork>,
        store: TrajectoryStore,
        vocab: Vocabulary,
        dir: impl AsRef<Path>,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        backend: Arc<dyn StorageBackend>,
        retry: RetryPolicy,
        journal: Option<&EventJournal>,
    ) -> Result<Self, DurableError> {
        let live = LiveSet::all_live(store.len());
        let manager = EpochManager::from_parts(
            network,
            store,
            live,
            vocab.len(),
            0,
            true,
            registry,
            journal,
        );
        let dir = dir.as_ref();
        Self::over_log(
            manager,
            vocab,
            0,
            dir,
            config,
            checkpoint_every,
            registry,
            backend,
            retry,
            journal,
        )
    }

    /// Continues the log in `dir` from a recovered manager (see
    /// [`recover`], which reads through the same `backend` and reports to
    /// the same `registry` and `journal`); the WAL writer continues at the
    /// durable prefix's end.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        recovered: Recovered,
        dir: impl AsRef<Path>,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        backend: Arc<dyn StorageBackend>,
        retry: RetryPolicy,
        journal: Option<&EventJournal>,
    ) -> Result<Self, DurableError> {
        let Recovered {
            manager,
            vocab,
            report,
        } = recovered;
        let (dir, lsn) = (dir.as_ref(), report.checkpoint_lsn);
        Self::over_log(
            manager,
            vocab,
            lsn,
            dir,
            config,
            checkpoint_every,
            registry,
            backend,
            retry,
            journal,
        )
    }

    /// Opens the WAL writer in `dir` behind `manager`, whose state is
    /// durable through `checkpoint_lsn` (0: the base state).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn over_log(
        manager: EpochManager,
        vocab: Vocabulary,
        checkpoint_lsn: u64,
        dir: &Path,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        backend: Arc<dyn StorageBackend>,
        retry: RetryPolicy,
        journal: Option<&EventJournal>,
    ) -> Result<Self, DurableError> {
        let wal = WalWriter::open(dir, config, Arc::clone(&backend), registry, journal)?;
        // refuse to reissue LSNs an existing checkpoint already covers —
        // replay would skip the duplicates, silently dropping new batches
        // at the next recovery (the writer continues at the log end the
        // recovery plan scanned, so this is the plan's `next_lsn` rule)
        if wal.next_lsn() <= checkpoint_lsn {
            return Err(DurableError::Inconsistent(format!(
                "wal ends at lsn {} but the recovered state covers lsn {checkpoint_lsn}: \
                 resuming would reissue checkpoint-covered lsns",
                wal.next_lsn().saturating_sub(1),
            )));
        }
        Ok(DurableIngest {
            manager,
            wal,
            dir: dir.to_path_buf(),
            vocab,
            backend,
            retry,
            degraded: None,
            checkpoint_every,
            batches_since_checkpoint: 0,
            last_checkpoint_lsn: checkpoint_lsn,
            checkpoint_failures: 0,
            last_checkpoint_error: None,
            prune_failures: 0,
            last_prune_error: None,
            metrics: DurableMetrics::register(&registry.cloned().unwrap_or_default()),
            journal: journal.cloned().unwrap_or_default(),
        })
    }

    /// The underlying manager (snapshots, stats).
    pub(crate) fn manager(&self) -> &EpochManager {
        &self.manager
    }

    /// LSN the next batch will receive.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// High-water mark of the last checkpoint written (0 = none).
    pub fn last_checkpoint_lsn(&self) -> u64 {
        self.last_checkpoint_lsn
    }

    /// Whether the ingest has degraded to read-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Point-in-time health summary (what `uots status` prints for a live
    /// embedder).
    pub fn status(&self) -> DurableStatus {
        DurableStatus {
            state: match &self.degraded {
                None => IngestState::Healthy,
                Some(reason) => IngestState::Degraded {
                    reason: reason.clone(),
                },
            },
            next_lsn: self.wal.next_lsn(),
            durable_lsn: self.wal.durable_lsn(),
            last_checkpoint_lsn: self.last_checkpoint_lsn,
            batches_since_checkpoint: self.batches_since_checkpoint,
            checkpoint_failures: self.checkpoint_failures,
            last_checkpoint_error: self.last_checkpoint_error.clone(),
            prune_failures: self.prune_failures,
            last_prune_error: self.last_prune_error.clone(),
        }
    }

    fn degrade(&mut self, reason: String) {
        if self.degraded.is_none() {
            self.journal.error(
                "durable",
                "degraded_read_only",
                &[("reason", reason.clone())],
            );
            self.degraded = Some(reason);
            self.metrics.degraded.set(1);
        }
    }

    /// Appends with the retry policy: transient errors back off and
    /// retry (each retry reuses the same LSN — the writer advances it
    /// only on success); permanent errors get one fresh-segment retry;
    /// exhaustion degrades the ingest and returns the final error.
    fn append_with_retry(&mut self, batch: &[Mutation]) -> Result<u64, DurableError> {
        if let Some(reason) = &self.degraded {
            self.metrics
                .rejected_mutations
                .add(batch.len().max(1) as u64);
            return Err(DurableError::ReadOnly {
                reason: reason.clone(),
            });
        }
        let mut attempts = 0u32;
        loop {
            let err = match self.wal.append(batch) {
                Ok(lsn) => return Ok(lsn),
                Err(e) => e,
            };
            attempts += 1;
            let class = match &err {
                WalError::Io(io) => ErrorClass::of(io),
                // structural corruption: retrying cannot repair a log
                WalError::Corrupt(_) => ErrorClass::Permanent,
            };
            if self.retry.allows_retry(class, attempts) {
                self.metrics.retries.inc();
                self.journal.warn(
                    "durable",
                    "append_retry",
                    &[
                        ("attempt", attempts.to_string()),
                        ("class", format!("{class:?}")),
                        ("error", err.to_string()),
                    ],
                );
                let backoff = self.retry.backoff(attempts);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                continue;
            }
            self.metrics.append_failures.inc();
            self.journal.error(
                "durable",
                "retries_exhausted",
                &[
                    ("attempts", attempts.to_string()),
                    ("class", format!("{class:?}")),
                    ("error", err.to_string()),
                ],
            );
            self.degrade(format!(
                "wal append failed after {attempts} attempt(s) ({class:?}): {err}"
            ));
            return Err(err.into());
        }
    }

    /// Refuses a batch that retires an id the master store has not issued
    /// (ids the batch's own earlier inserts receive count as issued) or
    /// inserts a trajectory naming a vertex outside the network or a
    /// keyword outside the vocabulary. Runs before anything is logged:
    /// once in the WAL such a record fails every later recovery, and
    /// applied it panics the manager.
    fn check_batch(&self, batch: &[Mutation]) -> Result<(), DurableError> {
        let mut issued = self.manager.issued();
        for m in batch {
            match m {
                Mutation::Insert(t) => {
                    check_ids(t, self.manager.network().num_nodes(), self.vocab.len())
                        .map_err(|e| DurableError::Inconsistent(format!("insert: {e}")))?;
                    issued += 1;
                }
                Mutation::Retire(id) if id.index() >= issued => {
                    return Err(DurableError::Inconsistent(format!(
                        "retire of id {id} the store never issued"
                    )));
                }
                Mutation::Retire(_) => {}
            }
        }
        Ok(())
    }

    /// Logs `batch` as one WAL record, then applies it to the manager.
    /// Returns the batch's LSN and the ids assigned to its inserts. A
    /// batch retiring an unknown id, or inserting a trajectory with a
    /// vertex outside the network or a keyword outside the vocabulary, is
    /// refused with [`DurableError::Inconsistent`] — nothing logged,
    /// nothing applied, the ingest not degraded. On a WAL error nothing is
    /// applied — the in-memory state never runs ahead of the log. Storage
    /// errors are retried per the [`RetryPolicy`]; exhaustion degrades the
    /// ingest to read-only (subsequent calls fail fast with
    /// [`DurableError::ReadOnly`]).
    pub fn apply(
        &mut self,
        batch: Vec<Mutation>,
    ) -> Result<(u64, Vec<TrajectoryId>), DurableError> {
        self.check_batch(&batch)?;
        let lsn = self.append_with_retry(&batch)?;
        let inserted = self.manager.apply(batch);
        self.batches_since_checkpoint += 1;
        Ok((lsn, inserted))
    }

    /// Publishes a fresh snapshot (see [`EpochManager::publish`]) and, if
    /// the checkpoint cadence is due, cuts a checkpoint of it.
    ///
    /// A *checkpoint* failure does not fail the publish and does not
    /// degrade ingest — the WAL already carries full durability; the
    /// failure is counted, visible in [`status`](Self::status), and the
    /// checkpoint is retried at the next cadence point. Publishing is
    /// allowed while degraded (it cannot lose anything: no new mutations
    /// are being accepted).
    pub fn publish(&mut self) -> Result<Arc<EpochSnapshot>, DurableError> {
        // capture the high-water mark *before* the swap: every batch
        // appended so far is applied, so the snapshot contains exactly
        // lsns 1..=high_water
        let high_water = self.wal.next_lsn().saturating_sub(1);
        let snapshot = self.manager.publish();
        if let Some(every) = self.checkpoint_every {
            if self.batches_since_checkpoint >= every {
                if let Err(e) = self.checkpoint_snapshot(&snapshot, high_water) {
                    self.note_checkpoint_failure(&e);
                }
            }
        }
        Ok(snapshot)
    }

    /// Cuts a checkpoint of the current snapshot unconditionally. The
    /// durable state must equal the snapshot, so this publishes first if
    /// mutations are pending. Unlike the cadence-driven checkpoint in
    /// [`publish`](Self::publish), an explicit request propagates the
    /// failure (the caller asked for exactly this work).
    pub fn checkpoint_now(&mut self) -> Result<Arc<EpochSnapshot>, DurableError> {
        let high_water = self.wal.next_lsn().saturating_sub(1);
        let snapshot = if self.manager.pending() > 0 {
            self.manager.publish()
        } else {
            self.manager.snapshot()
        };
        if let Err(e) = self.checkpoint_snapshot(&snapshot, high_water) {
            self.note_checkpoint_failure(&e);
            return Err(e);
        }
        Ok(snapshot)
    }

    fn note_checkpoint_failure(&mut self, e: &DurableError) {
        self.checkpoint_failures += 1;
        self.last_checkpoint_error = Some(e.to_string());
        self.metrics.checkpoint_failures.inc();
        self.journal
            .error("durable", "checkpoint_failed", &[("error", e.to_string())]);
    }

    fn checkpoint_snapshot(
        &mut self,
        snapshot: &EpochSnapshot,
        high_water: u64,
    ) -> Result<(), DurableError> {
        let started = Instant::now();
        // A checkpoint asserts "state through `high_water` is durable", so
        // the log must be durable through it *first*. Under a lazy fsync
        // policy the WAL can lag the applied state; without this sync a
        // crash could preserve the checkpoint but not the log tail it
        // summarizes — and a resumed writer, continuing from the shorter
        // log, would reissue LSNs the checkpoint already covers, which a
        // later recovery would silently skip.
        if self.wal.durable_lsn() < high_water {
            self.wal.sync()?;
        }
        let ck = Checkpoint {
            network: (**snapshot.network()).clone(),
            vocab: self.vocab.clone(),
            store: snapshot.store().clone(),
            live: snapshot.live().clone(),
            epoch: snapshot.epoch(),
            lsn: high_water,
        };
        persist::save_checkpoint_file(
            &*self.backend,
            &ck,
            &checkpoint_path(&self.dir, high_water),
        )?;
        self.batches_since_checkpoint = 0;
        self.last_checkpoint_lsn = high_water;
        // The checkpoint is durable at this point; pruning is cleanup of
        // segments it already covers. A prune failure leaves extra (but
        // harmless) log on disk, so it must not be reported as a failed
        // checkpoint — it gets its own accounting and the next successful
        // checkpoint retries the removal.
        let pruned = match wal::prune_segments(&*self.backend, &self.dir, high_water) {
            Ok(n) => n as u64,
            Err(e) => {
                self.prune_failures += 1;
                self.last_prune_error = Some(e.to_string());
                self.metrics.prune_failures.inc();
                self.journal
                    .warn("durable", "prune_failed", &[("error", e.to_string())]);
                0
            }
        };
        self.metrics.checkpoints.inc();
        self.metrics
            .checkpoint_micros
            .record(started.elapsed().as_micros() as u64);
        self.metrics.pruned_segments.add(pruned);
        self.journal.info(
            "durable",
            "checkpoint_written",
            &[
                ("lsn", high_water.to_string()),
                ("pruned_segments", pruned.to_string()),
                ("micros", started.elapsed().as_micros().to_string()),
            ],
        );
        Ok(())
    }
}

fn checkpoint_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("ckpt-{lsn:020}.uotsck"))
}

/// Lists checkpoint files in `dir`, newest (highest LSN) first.
pub(crate) fn list_checkpoints(backend: &dyn StorageBackend, dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = backend
        .read_dir(dir)
        .into_iter()
        .flatten()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".uotsck"))
        })
        .collect();
    out.sort();
    out.reverse();
    out
}

/// What recovery of a directory starts from and replays — the one
/// decision [`recover`] carries out and [`scrub`](crate::scrub) reports.
#[derive(Debug)]
pub struct RecoveryPlan {
    /// The state recovery starts from: the newest checkpoint that loads
    /// and whose surviving WAL tail continues at its lsn + 1, with its
    /// file. `None`: the base dataset at lsn 0.
    pub checkpoint: Option<(PathBuf, Checkpoint)>,
    /// Checkpoints passed over on the way to it, newest first, with why.
    pub rejected: Vec<(PathBuf, String)>,
    /// The durable WAL batches past the starting state, in lsn order.
    pub tail: Vec<(u64, Vec<Mutation>)>,
    /// Where a resumed writer continues: past the log's last durable
    /// record or past the checkpoint, whichever reaches further (the
    /// checkpoint's segments may have been pruned or lost while it
    /// survived).
    pub next_lsn: u64,
    /// The log's first surviving lsn when it is not 1: the base dataset
    /// cannot be continued with this log, so without a checkpoint the
    /// directory is unrecoverable.
    pub base_gap: Option<u64>,
    /// Set when the WAL scan stopped at a damaged record; everything
    /// before it is the durable prefix, everything after discarded.
    pub wal_corruption: Option<Corruption>,
}

impl RecoveryPlan {
    /// Plans recovery of `dir`: one scan of the whole durable log, then
    /// the checkpoints newest first, each loaded only until one is taken.
    ///
    /// # Errors
    ///
    /// The WAL scan's; a checkpoint that fails to load is rejected, not
    /// an error — recovery must survive exactly the failures it exists
    /// for.
    pub(crate) fn scan(backend: &dyn StorageBackend, dir: &Path) -> Result<Self, WalError> {
        let log = wal::replay(backend, dir, 0)?;
        // A state durable through `lsn` must be continued *exactly* at
        // lsn + 1: segments in between may have been pruned against a
        // newer checkpoint that is now unusable, and replaying a gapped
        // tail would assign wrong dense ids to inserts and retire wrong
        // rows — silently.
        let gap_after = |lsn: u64| {
            log.batches
                .iter()
                .map(|(l, _)| *l)
                .find(|l| *l > lsn)
                .filter(|first| *first != lsn + 1)
        };
        let mut rejected = Vec::new();
        let mut checkpoint = None;
        for path in list_checkpoints(backend, dir) {
            match persist::load_checkpoint_file(backend, &path) {
                Err(e) => rejected.push((path, e.to_string())),
                Ok(ck) => match gap_after(ck.lsn) {
                    Some(first) => rejected.push((
                        path,
                        format!(
                            "wal tail starts at lsn {first}, not {}: segments were pruned \
                             against a newer checkpoint",
                            ck.lsn + 1
                        ),
                    )),
                    None => {
                        checkpoint = Some((path, ck));
                        break;
                    }
                },
            }
        }
        let base_gap = gap_after(0);
        let after = checkpoint.as_ref().map_or(0, |(_, ck)| ck.lsn);
        Ok(RecoveryPlan {
            checkpoint,
            rejected,
            tail: log
                .batches
                .into_iter()
                .filter(|(l, _)| *l > after)
                .collect(),
            next_lsn: log.next_lsn.max(after + 1),
            base_gap,
            wal_corruption: log.corruption,
        })
    }

    /// Mutations inside the tail's batches.
    pub fn tail_mutations(&self) -> u64 {
        self.tail.iter().map(|(_, batch)| batch.len() as u64).sum()
    }
}

/// What [`recover`] rebuilt the manager from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverySource {
    /// A validated checkpoint file.
    Checkpoint(PathBuf),
    /// The caller-supplied base dataset (no usable checkpoint).
    BaseDataset,
}

/// Outcome of a [`recover`] run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Where the base state came from.
    pub source: RecoverySource,
    /// WAL high-water mark of the recovered-from state (0 for the base
    /// dataset).
    pub checkpoint_lsn: u64,
    /// Checkpoint files the plan passed over (see
    /// [`RecoveryPlan::rejected`]).
    pub rejected_checkpoints: Vec<PathBuf>,
    /// WAL batches replayed on top of the base state.
    pub replayed_batches: u64,
    /// Individual mutations inside those batches.
    pub replayed_mutations: u64,
    /// One past the highest durable LSN (where a resumed writer starts).
    pub next_lsn: u64,
    /// Set when the WAL scan stopped at a damaged record; everything
    /// before it was recovered, everything after discarded.
    pub wal_corruption: Option<Corruption>,
    /// Wall-clock recovery time in microseconds.
    pub micros: u64,
}

/// A recovered serving state: the manager plus the vocabulary it indexes.
pub struct Recovered {
    /// Manager seeded with the recovered store/mask, serving immediately.
    pub manager: EpochManager,
    /// Vocabulary (from the checkpoint, or the base dataset).
    pub vocab: Vocabulary,
    /// What happened.
    pub report: RecoveryReport,
}

/// Rebuilds an [`EpochManager`] from the durable state in `dir`, read
/// through `backend`: carries out the [`RecoveryPlan`], seeding from the
/// base dataset `base` when the plan takes no checkpoint. Fails when that
/// arm is needed and `base` is missing or the log is gapped behind it.
/// Recovery counters/latency land in `registry`'s `uots_recovery_*` and
/// the manager's series in `uots_epoch_*`; the plan (source, rejected
/// checkpoints with their reasons, truncation) and, after it, the
/// manager's snapshot swaps in `journal`. A `None` instrument is a
/// detached one nothing reads.
pub fn recover(
    backend: &dyn StorageBackend,
    dir: &Path,
    base: Option<&Dataset>,
    registry: Option<&MetricsRegistry>,
    journal: Option<&EventJournal>,
) -> Result<Recovered, DurableError> {
    recover_shard(backend, dir, base, true, registry, journal)
}

/// [`recover`], the manager's snapshots building a vertex index when
/// `vertex_index` (not for a shard of a multi-shard cut, see
/// [`EpochManager::from_parts`]).
pub(crate) fn recover_shard(
    backend: &dyn StorageBackend,
    dir: &Path,
    base: Option<&Dataset>,
    vertex_index: bool,
    registry: Option<&MetricsRegistry>,
    journal: Option<&EventJournal>,
) -> Result<Recovered, DurableError> {
    let r = registry.cloned().unwrap_or_default();
    let j = journal.cloned().unwrap_or_default();
    let started = Instant::now();
    let plan = RecoveryPlan::scan(backend, dir)?;
    let mutations = plan.tail_mutations();
    let RecoveryPlan {
        checkpoint,
        rejected,
        tail,
        next_lsn,
        base_gap,
        wal_corruption,
    } = plan;

    let (source, network, vocab, mut store, mut live, epoch, after_lsn) = match checkpoint {
        Some((path, ck)) => (
            RecoverySource::Checkpoint(path),
            Arc::new(ck.network),
            ck.vocab,
            ck.store,
            ck.live,
            ck.epoch,
            ck.lsn,
        ),
        None => {
            let ds = base.ok_or_else(|| {
                DurableError::Inconsistent(
                    "no usable checkpoint and no base dataset to recover from".into(),
                )
            })?;
            if let Some(first) = base_gap {
                return Err(DurableError::Inconsistent(format!(
                    "wal tail starts at lsn {first} but recovery has no checkpoint \
                     covering lsns 1..{first}: segments were pruned against a \
                     checkpoint that is no longer usable"
                )));
            }
            let store = ds.store.clone();
            let live = LiveSet::all_live(store.len());
            (
                RecoverySource::BaseDataset,
                Arc::new(ds.network.clone()),
                ds.vocab.clone(),
                store,
                live,
                0,
                0,
            )
        }
    };

    for (path, reason) in &rejected {
        j.warn(
            "recovery",
            "checkpoint_rejected",
            &[
                ("checkpoint", path.display().to_string()),
                ("reason", reason.clone()),
            ],
        );
    }
    if let Some(c) = &wal_corruption {
        j.warn(
            "recovery",
            "wal_tail_truncated",
            &[
                ("segment", c.segment.display().to_string()),
                ("offset", c.offset.to_string()),
            ],
        );
    }
    j.info(
        "recovery",
        "plan_chosen",
        &[
            (
                "source",
                match &source {
                    RecoverySource::Checkpoint(p) => format!("checkpoint:{}", p.display()),
                    RecoverySource::BaseDataset => "base_dataset".to_string(),
                },
            ),
            ("checkpoint_lsn", after_lsn.to_string()),
        ],
    );

    let batches = tail.len() as u64;
    for (lsn, batch) in tail {
        for m in batch {
            match m {
                Mutation::Insert(t) => {
                    check_ids(&t, network.num_nodes(), vocab.len()).map_err(|e| {
                        DurableError::Inconsistent(format!("wal lsn {lsn}: insert: {e}"))
                    })?;
                    // ids must stay dense/stable: an insert lands at the
                    // next id, exactly as the original ingest assigned it
                    store.push(t);
                    live.grow_to(store.len());
                }
                Mutation::Retire(id) => {
                    if id.index() >= store.len() {
                        return Err(DurableError::Inconsistent(format!(
                            "wal lsn {lsn}: retire of id {id} the store never issued"
                        )));
                    }
                    live.retire(id);
                }
            }
        }
    }

    let vocab_len = vocab.len();
    let manager = EpochManager::from_parts(
        Arc::clone(&network),
        store,
        live,
        vocab_len,
        epoch,
        vertex_index,
        Some(&r),
        Some(&j),
    );

    let micros = started.elapsed().as_micros() as u64;
    r.counter("uots_recovery_total", "Crash recoveries performed")
        .inc();
    r.counter(
        "uots_recovery_replayed_batches_total",
        "WAL batches replayed during recovery",
    )
    .add(batches);
    r.counter(
        "uots_recovery_replayed_mutations_total",
        "Mutations replayed during recovery",
    )
    .add(mutations);
    if wal_corruption.is_some() {
        r.counter(
            "uots_recovery_truncations_total",
            "Recoveries that found a torn/corrupt WAL tail",
        )
        .inc();
    }
    r.counter(
        "uots_recovery_rejected_checkpoints_total",
        "Checkpoint files skipped as corrupt during recovery",
    )
    .add(rejected.len() as u64);
    r.histogram(
        "uots_recovery_micros",
        "Crash recovery wall time (checkpoint load + WAL replay + index build), microseconds",
    )
    .record(micros);

    j.info(
        "recovery",
        "recovery_completed",
        &[
            ("replayed_batches", batches.to_string()),
            ("replayed_mutations", mutations.to_string()),
            ("next_lsn", next_lsn.to_string()),
            ("micros", micros.to_string()),
        ],
    );

    Ok(Recovered {
        manager,
        vocab,
        report: RecoveryReport {
            source,
            checkpoint_lsn: after_lsn,
            rejected_checkpoints: rejected.into_iter().map(|(path, _)| path).collect(),
            replayed_batches: batches,
            replayed_mutations: mutations,
            next_lsn,
            wal_corruption,
            micros,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_core::storage::fault::{Fault, FaultFs, OpKind, ScriptedFault};
    use uots_core::storage::StdFs;
    use uots_datagen::DatasetConfig;
    use uots_trajectory::Trajectory;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_durable_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ingest_over(
        ds: &Dataset,
        dir: &Path,
        backend: Arc<dyn StorageBackend>,
        checkpoint_every: Option<u64>,
    ) -> DurableIngest {
        DurableIngest::create(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.clone(),
            dir,
            WalConfig::default(),
            checkpoint_every,
            None,
            backend,
            RetryPolicy::without_backoff(),
            None,
        )
        .unwrap()
    }

    fn donor(ds: &Dataset, i: u32) -> Trajectory {
        ds.store.get(TrajectoryId(i)).clone()
    }

    /// Bytes in the WAL segments under `dir`.
    fn wal_bytes(dir: &Path) -> u64 {
        let segments = wal::list_segments(&StdFs, dir).unwrap();
        segments
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum()
    }

    #[test]
    fn transient_faults_are_retried_and_stay_invisible() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("transient");
        // writes #0/#1 are the segment header; #2 = first record write
        let fs = FaultFs::scripted(
            3,
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
        let mut ingest = ingest_over(&ds, &dir, fs, None);
        for i in 0..3 {
            ingest
                .apply(vec![Mutation::Insert(donor(&ds, i))])
                .expect("transient faults must be absorbed by the retry policy");
        }
        assert!(!ingest.is_degraded());
        assert!(matches!(ingest.status().state, IngestState::Healthy));
        // the log is complete and clean
        let r = wal::replay(&StdFs, &dir, 0).unwrap();
        assert!(r.corruption.is_none());
        assert_eq!(r.batches.len(), 3);
    }

    #[test]
    fn exhausted_retries_degrade_to_read_only() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("degrade");
        // permanent failure on the first record write AND on its one
        // fresh-segment retry: budget exhausted (permanent_attempts = 2)
        let fs = FaultFs::scripted(
            9,
            vec![
                ScriptedFault {
                    op: OpKind::Write,
                    nth: 2,
                    fault: Fault::Permanent,
                },
                ScriptedFault {
                    op: OpKind::Write,
                    nth: 5,
                    fault: Fault::Permanent,
                },
            ],
        );
        let mut ingest = ingest_over(&ds, &dir, fs, None);
        let err = ingest
            .apply(vec![Mutation::Insert(donor(&ds, 0))])
            .unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)), "{err}");
        assert!(ingest.is_degraded());
        match ingest.status().state {
            IngestState::Degraded { reason } => {
                assert!(reason.contains("2 attempt"), "{reason}")
            }
            s => panic!("expected degraded, got {s:?}"),
        }
        // mutations now fail fast with the structured read-only error
        let err = ingest
            .apply(vec![Mutation::Insert(donor(&ds, 1))])
            .unwrap_err();
        assert!(matches!(err, DurableError::ReadOnly { .. }), "{err}");
        let err = ingest
            .apply(vec![Mutation::Retire(TrajectoryId(0))])
            .unwrap_err();
        assert!(matches!(err, DurableError::ReadOnly { .. }), "{err}");
        // queries keep serving: snapshots and publishes still work
        let snap = ingest.publish().unwrap();
        assert_eq!(snap.store().len(), ds.store.len());
        // nothing unacked leaked into the log
        let r = wal::replay(&StdFs, &dir, 0).unwrap();
        assert_eq!(r.batches.len(), 0, "no batch was ever acked");
    }

    #[test]
    fn checkpoint_failure_is_counted_but_does_not_degrade() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("ckpt_fail");
        // the WAL never fsyncs directories, so SyncDir #0 is the first
        // checkpoint's rename-durability fsync
        let fs = FaultFs::scripted(
            5,
            vec![ScriptedFault {
                op: OpKind::SyncDir,
                nth: 0,
                fault: Fault::Permanent,
            }],
        );
        let mut ingest = ingest_over(&ds, &dir, fs, Some(1));
        ingest.apply(vec![Mutation::Insert(donor(&ds, 0))]).unwrap();
        // cadence due: the publish succeeds even though its checkpoint fails
        ingest.publish().unwrap();
        assert!(
            !ingest.is_degraded(),
            "checkpoint failures must not degrade"
        );
        let status = ingest.status();
        assert_eq!(status.checkpoint_failures, 1);
        assert!(status.last_checkpoint_error.is_some());
        assert_eq!(status.last_checkpoint_lsn, 0, "nothing durable yet");
        // the next cadence point retries and succeeds
        ingest.apply(vec![Mutation::Insert(donor(&ds, 1))]).unwrap();
        ingest.publish().unwrap();
        let status = ingest.status();
        assert_eq!(status.checkpoint_failures, 1, "no new failure");
        assert_eq!(status.last_checkpoint_lsn, 2);
        assert!(!list_checkpoints(&StdFs, &dir).is_empty());
    }

    #[test]
    fn prune_failure_after_a_durable_checkpoint_is_not_a_checkpoint_failure() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("prune_fail");
        // nothing else removes files in this script: Remove #0 is the
        // covered-segment prune right after the first checkpoint lands
        let fs = FaultFs::scripted(
            7,
            vec![ScriptedFault {
                op: OpKind::Remove,
                nth: 0,
                fault: Fault::Permanent,
            }],
        );
        let mut ingest = DurableIngest::create(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.clone(),
            &dir,
            WalConfig {
                segment_bytes: 1, // rotate every batch: something to prune
                ..WalConfig::default()
            },
            None,
            None,
            fs,
            RetryPolicy::without_backoff(),
            None,
        )
        .unwrap();
        ingest.apply(vec![Mutation::Insert(donor(&ds, 0))]).unwrap();
        ingest.apply(vec![Mutation::Insert(donor(&ds, 1))]).unwrap();
        // the checkpoint file is durable; only the cleanup prune fails
        ingest
            .checkpoint_now()
            .expect("a durable checkpoint must not be failed by its prune");
        let status = ingest.status();
        assert_eq!(
            status.checkpoint_failures, 0,
            "{:?}",
            status.last_checkpoint_error
        );
        assert!(status.last_checkpoint_error.is_none());
        assert_eq!(status.last_checkpoint_lsn, 2);
        assert_eq!(status.prune_failures, 1);
        assert!(status.last_prune_error.is_some());
        // the next checkpoint retries the removal and succeeds
        ingest.apply(vec![Mutation::Insert(donor(&ds, 2))]).unwrap();
        ingest.checkpoint_now().unwrap();
        let status = ingest.status();
        assert_eq!(status.prune_failures, 1, "no new failure");
        assert_eq!(status.last_checkpoint_lsn, 3);
        // and recovery of the directory is unaffected throughout
        drop(ingest);
        let recovered = recover(&StdFs, &dir, Some(&ds), None, None).expect("recovery");
        assert_eq!(recovered.report.checkpoint_lsn, 3);
        assert_eq!(
            recovered.manager.snapshot().store().len(),
            ds.store.len() + 3
        );
    }

    #[test]
    fn explicit_checkpoint_propagates_its_failure() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("ckpt_now");
        let fs = FaultFs::scripted(
            6,
            vec![ScriptedFault {
                op: OpKind::SyncDir,
                nth: 0,
                fault: Fault::Permanent,
            }],
        );
        let mut ingest = ingest_over(&ds, &dir, fs, None);
        ingest.apply(vec![Mutation::Insert(donor(&ds, 0))]).unwrap();
        let err = ingest.checkpoint_now().unwrap_err();
        assert!(matches!(err, DurableError::Persist(_)), "{err}");
        assert!(!ingest.is_degraded());
        assert_eq!(ingest.status().checkpoint_failures, 1);
        // retrying explicitly now succeeds
        ingest.checkpoint_now().unwrap();
        assert_eq!(ingest.status().last_checkpoint_lsn, 1);
    }

    /// Regression: an unknown-id retire used to be appended to the WAL
    /// first and then panic the manager — with the record already durable,
    /// every later open of the directory failed on it.
    #[test]
    fn unknown_retire_is_refused_before_it_reaches_the_log() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("unknown_retire");
        let mut ingest = ingest_over(&ds, &dir, Arc::new(StdFs), None);
        let (lsn, _) = ingest.apply(vec![Mutation::Insert(donor(&ds, 0))]).unwrap();
        let before = wal_bytes(&dir);

        let err = ingest
            .apply(vec![Mutation::Retire(TrajectoryId(999_999))])
            .unwrap_err();
        assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
        // an id the batch's own insert receives is known; the one after is not
        let next = TrajectoryId(ds.store.len() as u32 + 1);
        let err = ingest
            .apply(vec![
                Mutation::Insert(donor(&ds, 1)),
                Mutation::Retire(TrajectoryId(next.0 + 1)),
            ])
            .unwrap_err();
        assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
        assert_eq!(wal_bytes(&dir), before, "nothing was logged");
        assert_eq!(ingest.manager().issued(), ds.store.len() + 1);
        assert!(!ingest.is_degraded());

        let (next_lsn, ids) = ingest
            .apply(vec![
                Mutation::Insert(donor(&ds, 1)),
                Mutation::Retire(next),
            ])
            .unwrap();
        assert_eq!(next_lsn, lsn + 1, "the refused batches took no lsn");
        assert_eq!(ids, vec![next]);
        drop(ingest);
        let reopened = recover(&StdFs, &dir, Some(&ds), None, None).unwrap();
        assert_eq!(reopened.report.replayed_batches, 2);
        assert_eq!(reopened.manager.snapshot().stats().live, ds.store.len() + 1);
    }

    /// A one-sample trajectory on `node` tagged `keyword`.
    fn probe(node: u32, keyword: u32) -> Trajectory {
        use uots_network::NodeId;
        use uots_text::{KeywordId, KeywordSet};
        let sample = uots_trajectory::Sample {
            node: NodeId(node),
            time: 60.0,
        };
        Trajectory::new(vec![sample], KeywordSet::from_ids([KeywordId(keyword)])).unwrap()
    }

    /// Regression: an insert naming a vertex outside the network was
    /// appended to the WAL first and then panicked the manager's vertex
    /// index (an out-of-vocabulary keyword: the index build of the next
    /// publish) — logged before the panic, so the directory never
    /// reopened. `uots ingest` had nothing in front of it.
    #[test]
    fn out_of_range_insert_is_refused_before_it_reaches_the_log() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("bad_insert");
        let mut ingest = ingest_over(&ds, &dir, Arc::new(StdFs), None);
        let (lsn, _) = ingest.apply(vec![Mutation::Insert(donor(&ds, 0))]).unwrap();
        let before = wal_bytes(&dir);

        let bad_vertex = probe(ds.network.num_nodes() as u32, 0);
        let bad_keyword = probe(0, ds.vocab.len() as u32);
        for bad in [&bad_vertex, &bad_keyword] {
            let err = ingest
                .apply(vec![Mutation::Insert(bad.clone())])
                .unwrap_err();
            assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
            // one bad insert refuses the whole batch, valid ones included
            let err = ingest
                .apply(vec![
                    Mutation::Insert(donor(&ds, 1)),
                    Mutation::Insert(bad.clone()),
                ])
                .unwrap_err();
            assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
        }
        assert_eq!(wal_bytes(&dir), before, "nothing was logged");
        assert_eq!(ingest.manager().issued(), ds.store.len() + 1);
        assert!(!ingest.is_degraded());

        // the last valid ids are accepted
        let edge = probe(ds.network.num_nodes() as u32 - 1, ds.vocab.len() as u32 - 1);
        let (next_lsn, _) = ingest.apply(vec![Mutation::Insert(edge)]).unwrap();
        assert_eq!(next_lsn, lsn + 1, "the refused batches took no lsn");
        ingest
            .publish()
            .expect("the index build accepts what the check let through");
        drop(ingest);
        let reopened = recover(&StdFs, &dir, Some(&ds), None, None).unwrap();
        assert_eq!(reopened.report.replayed_batches, 2);
        assert_eq!(reopened.manager.snapshot().stats().live, ds.store.len() + 2);
    }

    /// A log that already holds an out-of-vocabulary insert (written
    /// before the check above existed) fails recovery with a typed error;
    /// it used to pass replay — which looked at vertices only — and panic
    /// in the keyword-index build of the first snapshot.
    #[test]
    fn replay_refuses_an_out_of_vocabulary_insert_with_a_typed_error() {
        let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
        let dir = tmpdir("bad_replay");
        let mut log =
            wal::WalWriter::open(&dir, WalConfig::default(), Arc::new(StdFs), None, None).unwrap();
        log.append(&[Mutation::Insert(donor(&ds, 0))]).unwrap();
        log.append(&[Mutation::Insert(probe(0, ds.vocab.len() as u32))])
            .unwrap();
        drop(log);
        let err = match recover(&StdFs, &dir, Some(&ds), None, None) {
            Err(e) => e,
            Ok(_) => panic!("an out-of-vocabulary insert must fail recovery"),
        };
        assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
        let text = err.to_string();
        assert!(text.contains("lsn 2") && text.contains("keyword"), "{text}");
    }
}
