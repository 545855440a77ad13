//! Sharded durable ingest: one WAL + checkpoint lineage **per shard**.
//!
//! [`ShardedDurable`] is the durable twin of
//! [`core::shard::ShardedCluster`](uots_core::shard::ShardedCluster): `N`
//! independent [`DurableIngest`]s under hash partitioning (global id `g`
//! lives on shard `g % N` at local id `g / N` — the same map-free
//! bijection, so a sharded cluster recovered from disk answers queries
//! bit-identically to the unsharded engine over the same history).
//!
//! ## Per-shard durability lineage
//!
//! Each shard owns a private directory (`shard-0/ … shard-(N-1)/` under
//! the cluster root) holding its own WAL segments and checkpoints. The
//! consequences, by design:
//!
//! * **Recovery parallelizes.** [`ShardedDurable::open`] recovers every
//!   shard concurrently; wall-clock recovery is the *slowest shard*, not
//!   the sum — the D5 experiment measures exactly this scaling.
//! * **Failure isolates.** A storage failure degrades *that shard* to
//!   read-only ([`DurableError::ReadOnly`] for mutations routed to it);
//!   the other shards keep accepting writes and the whole cluster keeps
//!   serving reads. New inserts route around degraded shards (their
//!   global-id residue classes simply stop growing).
//! * **Acks are per-shard.** A cross-shard [`apply`](ShardedDurable::apply)
//!   batch is split into per-shard sub-batches, each logged as one WAL
//!   record in its own log. The sub-batch is atomic; the cross-shard batch
//!   is not — a crash can persist some shards' sub-batches and not
//!   others. (Single-mutation [`ingest`](ShardedDurable::ingest) /
//!   [`retire`](ShardedDurable::retire) are unaffected.)
//!
//! [`create`](ShardedDurable::create) seeds every shard with an initial
//! checkpoint of its partition, so cluster recovery never needs the base
//! dataset: a shard directory is self-contained from birth.
//!
//! ## The one-shard cluster
//!
//! A directory whose root holds WAL segments and checkpoints directly is a
//! one-shard lineage: [`open_or_create`](ShardedDurable::open_or_create)
//! at `N = 1` wraps the [`DurableIngest`] opened over it (global id =
//! local id), so an unsharded `--wal-dir` keeps its flat layout and its
//! base-dataset recovery. `shard-<s>/` is the layout of `N ≥ 2`;
//! [`shards_on_disk`] tells the two apart.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::durable::{
    list_checkpoints, recover_with_journal, DurableError, DurableIngest, DurableStatus,
    RecoveryReport,
};
use uots_core::shard::{ClusterSnapshot, CutCell, CutReader};
use uots_core::storage::{RetryPolicy, StdFs};
use uots_core::wal::{self, WalConfig, WalError};
use uots_core::Mutation;
use uots_datagen::Dataset;
use uots_network::RoadNetwork;
use uots_obs::{EventJournal, MetricsRegistry};
use uots_text::Vocabulary;
use uots_trajectory::{Trajectory, TrajectoryId, TrajectoryStore};

/// The shard subdirectory for shard `s` under a cluster root.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// How many shards the lineage under `root` was written with: `Some(1)`
/// for the flat layout (WAL segments or checkpoints directly in `root`),
/// else the number of `shard-<s>` directories, `None` when `root` holds
/// neither (nothing to resume).
pub fn shards_on_disk(root: &Path) -> Result<Option<usize>, DurableError> {
    if !wal::list_segments(root)?.is_empty() || !list_checkpoints(root).is_empty() {
        return Ok(Some(1));
    }
    let Ok(entries) = std::fs::read_dir(root) else {
        return Ok(None); // not created yet
    };
    let n = entries
        .flatten()
        .filter(|e| e.path().is_dir() && e.file_name().to_string_lossy().starts_with("shard-"))
        .count();
    Ok((n > 0).then_some(n))
}

/// `N` hash-partitioned [`DurableIngest`]s behind one global-id facade.
/// Single-writer like its unsharded counterpart: mutating methods take
/// `&mut self`. Each shard's master-store length
/// ([`EpochManager::issued`](uots_core::EpochManager::issued)) is the
/// global-id assignment source of truth.
///
/// Readers do not need the writer: [`cut`](Self::cut) hands out a
/// [`CutReader`] on the facade's [`CutCell`], which holds the last
/// *completely* published cut and is refreshed at the end of every
/// constructor, [`publish_all`](Self::publish_all) and
/// [`checkpoint_now`](Self::checkpoint_now). A server keeps that handle
/// beside the lock it puts this facade behind, so a query never queues
/// behind a batch's append + fsync + per-shard publishes.
pub struct ShardedDurable {
    shards: Vec<DurableIngest>,
    cut: CutCell,
    /// Takes the `uots_cluster_*` series of every cut published here.
    registry: MetricsRegistry,
}

impl ShardedDurable {
    /// The facade over opened shards, its cut cell seeded with their
    /// current snapshots.
    fn over(shards: Vec<DurableIngest>, registry: MetricsRegistry) -> Self {
        let snaps = shards.iter().map(|s| s.snapshot()).collect();
        let cut = ClusterSnapshot::from_hash_shards(snaps, Some(&registry));
        ShardedDurable {
            shards,
            cut: CutCell::new(cut),
            registry,
        }
    }

    /// A read handle to the published cut, usable without the facade.
    pub fn cut(&self) -> CutReader {
        self.cut.reader()
    }

    /// The tail of every multi-shard publish: points the cell at the
    /// shards' current snapshots and returns that cut — unless the publish
    /// failed midway, when the cell still moves, so that readers see
    /// exactly what *was* published.
    fn published(
        &self,
        outcome: Result<(), DurableError>,
    ) -> Result<ClusterSnapshot, DurableError> {
        let snaps = self.shards.iter().map(|s| s.snapshot()).collect();
        let cut = ClusterSnapshot::from_hash_shards(snaps, Some(&self.registry));
        self.cut.set(cut.clone());
        outcome.map(|()| cut)
    }

    /// Creates a fresh cluster under `root`: partitions `store` by hash
    /// (seed trajectory `g` → shard `g % num_shards`), opens one WAL per
    /// shard, and seeds each shard with an initial checkpoint of its
    /// partition so recovery is self-contained. Every shard reports to
    /// `registry` — one detached registry when `None` — and to one
    /// detached journal.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab: &Vocabulary,
        root: impl AsRef<Path>,
        num_shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self, DurableError> {
        Self::seed(
            network,
            store,
            vocab,
            root.as_ref(),
            num_shards,
            config,
            checkpoint_every,
            registry,
            None,
        )
    }

    /// [`create`](Self::create) with every shard reporting to `journal`.
    #[allow(clippy::too_many_arguments)]
    fn seed(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab: &Vocabulary,
        root: &Path,
        num_shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Result<Self, DurableError> {
        assert!(num_shards >= 1, "a cluster needs at least one shard");
        let registry = registry.cloned().unwrap_or_default();
        let journal = journal.cloned().unwrap_or_default();
        let mut per_shard: Vec<TrajectoryStore> =
            (0..num_shards).map(|_| TrajectoryStore::new()).collect();
        for (g, t) in store.iter() {
            let s = g.index() % num_shards;
            let local = per_shard[s].push(t.clone());
            debug_assert_eq!(local.index(), g.index() / num_shards);
        }
        let mut shards = Vec::with_capacity(num_shards);
        for (s, partition) in per_shard.into_iter().enumerate() {
            let dir = shard_dir(root, s);
            std::fs::create_dir_all(&dir).map_err(|e| DurableError::Wal(WalError::Io(e)))?;
            let mut ingest = DurableIngest::create_with_backend(
                Arc::clone(&network),
                partition,
                vocab.clone(),
                &dir,
                config,
                checkpoint_every,
                Some(&registry),
                Arc::new(StdFs),
                RetryPolicy::default(),
                Some(&journal),
            )?;
            // self-contained lineage: recovery of this directory must
            // never need the base dataset
            ingest.checkpoint_now()?;
            shards.push(ingest);
        }
        Ok(Self::over(shards, registry))
    }

    /// Recovers every shard under `root` **in parallel** and resumes
    /// ingest, every shard reporting to `registry` — one detached registry
    /// when `None` — and to one detached journal. Returns the cluster plus
    /// the per-shard recovery reports (wall-clock recovery is their
    /// maximum, not their sum).
    ///
    /// Recovery is checkpoint-based: every shard directory carries its own
    /// lineage (seeded at [`create`](Self::create)), so no base dataset is
    /// needed. A shard whose directory lost all usable checkpoints fails
    /// the open — operators restore or re-seed that shard explicitly.
    pub fn open(
        root: impl AsRef<Path>,
        num_shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<(Self, Vec<RecoveryReport>), DurableError> {
        Self::resume(
            root.as_ref(),
            num_shards,
            config,
            checkpoint_every,
            registry,
            None,
        )
    }

    /// [`open`](Self::open) with every shard's recovery and ingest
    /// reporting to `journal`.
    fn resume(
        root: &Path,
        num_shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Result<(Self, Vec<RecoveryReport>), DurableError> {
        assert!(num_shards >= 1, "a cluster needs at least one shard");
        let registry = registry.cloned().unwrap_or_default();
        let journal = journal.cloned().unwrap_or_default();
        let (reg, jrn) = (Some(&registry), Some(&journal));
        let recovered: Vec<Result<(DurableIngest, RecoveryReport), DurableError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..num_shards)
                    .map(|s| {
                        let dir = shard_dir(root, s);
                        scope.spawn(move || {
                            let rec = recover_with_journal(&StdFs, &dir, None, reg, jrn)?;
                            let report = rec.report.clone();
                            let ingest = DurableIngest::resume(
                                rec,
                                &dir,
                                config,
                                checkpoint_every,
                                reg,
                                Arc::new(StdFs),
                                RetryPolicy::default(),
                                jrn,
                            )?;
                            Ok((ingest, report))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
        let mut shards = Vec::with_capacity(num_shards);
        let mut reports = Vec::with_capacity(num_shards);
        for r in recovered {
            let (ingest, report) = r?;
            shards.push(ingest);
            reports.push(report);
        }
        Ok((Self::over(shards, registry), reports))
    }

    /// Opens the `shards`-shard cluster under `root` for a server seeded
    /// from `base` — resumed when the directory holds a lineage (returning
    /// one recovery report per shard), created otherwise (no reports) —
    /// with every shard, its recovery included, reporting to `registry`
    /// and `journal` (`None`: detached). One shard keeps the flat layout of
    /// [`DurableIngest::open`], with `base` as its recovery base; `N ≥ 2`
    /// is [`open`](Self::open) or [`create`](Self::create) over
    /// `shard-<s>/`. A lineage written with another shard count is refused
    /// with [`DurableError::Inconsistent`]: the global ids `g = l·N + s`
    /// only mean anything under the `N` they were issued with.
    pub fn open_or_create(
        base: &Dataset,
        root: impl AsRef<Path>,
        shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Result<(Self, Vec<RecoveryReport>), DurableError> {
        let root = root.as_ref();
        let on_disk = shards_on_disk(root)?;
        if let Some(n) = on_disk.filter(|&n| n != shards) {
            return Err(DurableError::Inconsistent(format!(
                "{} holds a {n}-shard lineage, not a {shards}-shard one",
                root.display()
            )));
        }
        if shards == 1 {
            let (ingest, report) =
                DurableIngest::open(base, root, config, checkpoint_every, registry, journal)?;
            let registry = registry.cloned().unwrap_or_default();
            return Ok((Self::over(vec![ingest], registry), Vec::from_iter(report)));
        }
        if on_disk.is_some() {
            return Self::resume(root, shards, config, checkpoint_every, registry, journal);
        }
        Self::seed(
            Arc::new(base.network.clone()),
            &base.store,
            &base.vocab,
            root,
            shards,
            config,
            checkpoint_every,
            registry,
            journal,
        )
        .map(|fresh| (fresh, Vec::new()))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s ingest (status, snapshots, chaos tests).
    pub fn shard(&self, s: usize) -> &DurableIngest {
        &self.shards[s]
    }

    /// Per-shard health summaries.
    pub fn status(&self) -> Vec<DurableStatus> {
        self.shards.iter().map(|s| s.status()).collect()
    }

    /// Indexes of shards currently degraded to read-only.
    pub fn degraded_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| self.shards[s].is_degraded())
            .collect()
    }

    /// Mutations batched across all shards since the last publish.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.manager().pending()).sum()
    }

    /// The consistent cut of current per-shard snapshots (what the
    /// [`cut`](Self::cut) cell holds).
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot::clone(&self.cut.get())
    }

    /// Master-store length per shard, pending ingests included.
    fn issued(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|s| s.manager().issued() as u32)
            .collect()
    }

    /// Whether `global` is an id this cluster has issued (seeded or
    /// ingested; retired ids remain known).
    pub fn contains(&self, global: TrajectoryId) -> bool {
        self.locate(global).is_ok()
    }

    /// Routes `global` to `(shard, local)`.
    fn locate(&self, global: TrajectoryId) -> Result<(usize, TrajectoryId), DurableError> {
        let n = self.shards.len() as u32;
        let (s, l) = ((global.0 % n) as usize, global.0 / n);
        if l as usize >= self.shards[s].manager().issued() {
            return Err(DurableError::Inconsistent(format!(
                "unknown global trajectory id {global}"
            )));
        }
        Ok((s, TrajectoryId(l)))
    }

    /// The healthy shard whose next insert receives the smallest global
    /// id, given each shard's next local id.
    fn next_insert_shard(&self, next_local: &[u32]) -> Result<usize, DurableError> {
        let n = self.shards.len() as u64;
        (0..self.shards.len())
            .filter(|&s| !self.shards[s].is_degraded())
            .min_by_key(|&s| next_local[s] as u64 * n + s as u64)
            .ok_or_else(|| DurableError::ReadOnly {
                reason: "every shard is degraded to read-only".into(),
            })
    }

    /// Logs and applies one insert; returns its **global** id. Routes to
    /// the healthy shard holding the smallest unused global id (identical
    /// to the unsharded engine's sequential assignment while every shard
    /// is healthy); shards already degraded are routed around, and only
    /// with every shard degraded does the cluster refuse with
    /// [`DurableError::ReadOnly`]. A storage failure *during* the routed
    /// append surfaces as that shard's error (the write was not acked; the
    /// next call routes around the newly degraded shard).
    pub fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, DurableError> {
        let n = self.shards.len() as u32;
        let s = self.next_insert_shard(&self.issued())?;
        let local = self.shards[s].ingest(t)?;
        Ok(TrajectoryId(local.0 * n + s as u32))
    }

    /// Logs and applies one retire (global id); returns whether it was
    /// live. A retire routed to a degraded shard fails with
    /// [`DurableError::ReadOnly`] — retires cannot re-route.
    pub fn retire(&mut self, global: TrajectoryId) -> Result<bool, DurableError> {
        let (s, local) = self.locate(global)?;
        self.shards[s].retire(local)
    }

    /// Splits `batch` into per-shard sub-batches (inserts routed like
    /// [`ingest`](Self::ingest), retires to their owning shard), logs each
    /// sub-batch as one WAL record in its shard's log, and applies them.
    /// Returns the inserts' global ids in batch order.
    ///
    /// Each sub-batch is atomic; the cross-shard batch is **not** — on an
    /// error, sub-batches already applied to other shards stay applied
    /// (their acks were per-shard), and the error reports the first shard
    /// that failed.
    pub fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, DurableError> {
        let n = self.shards.len() as u32;
        let mut projected = self.issued();
        let mut sub: Vec<Vec<Mutation>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut insert_ids = Vec::new();
        for m in batch {
            match m {
                Mutation::Insert(t) => {
                    let s = self.next_insert_shard(&projected)?;
                    insert_ids.push(TrajectoryId(projected[s] * n + s as u32));
                    projected[s] += 1;
                    sub[s].push(Mutation::Insert(t));
                }
                Mutation::Retire(global) => {
                    let (s, local) = self.locate(global)?;
                    sub[s].push(Mutation::Retire(local));
                }
            }
        }
        for (s, sub_batch) in sub.into_iter().enumerate() {
            if sub_batch.is_empty() {
                continue;
            }
            self.shards[s].apply(sub_batch)?;
        }
        Ok(insert_ids)
    }

    /// Publishes every shard (cutting per-shard checkpoints when their
    /// cadence is due) and returns the fresh consistent cut, which
    /// readers of the [`cut`](Self::cut) cell see from here on — all of
    /// it at once, not shard by shard.
    pub fn publish_all(&mut self) -> Result<ClusterSnapshot, DurableError> {
        let outcome = self
            .shards
            .iter_mut()
            .try_for_each(|s| s.publish().map(drop));
        self.published(outcome)
    }

    /// Cuts a checkpoint on every shard unconditionally (publishing
    /// pending mutations first). Propagates the first failure.
    pub fn checkpoint_now(&mut self) -> Result<ClusterSnapshot, DurableError> {
        let outcome = self
            .shards
            .iter_mut()
            .try_for_each(|s| s.checkpoint_now().map(drop));
        self.published(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_datagen::{Dataset, DatasetConfig};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uots_cluster_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn donor(ds: &Dataset, i: u32) -> Trajectory {
        ds.store.get(TrajectoryId(i)).clone()
    }

    #[test]
    fn create_ingest_reopen_preserves_global_ids() {
        let ds = Dataset::build(&DatasetConfig::small(20, 9)).unwrap();
        let root = tmpdir("roundtrip");
        let mut cluster = ShardedDurable::create(
            Arc::new(ds.network.clone()),
            &ds.store,
            &ds.vocab,
            &root,
            4,
            WalConfig::default(),
            None,
            None,
        )
        .unwrap();
        for i in 0..6 {
            let id = cluster.ingest(donor(&ds, i)).unwrap();
            assert_eq!(id, TrajectoryId(20 + i), "sequential global ids");
        }
        assert!(cluster.retire(TrajectoryId(3)).unwrap());
        cluster.publish_all().unwrap();
        assert_eq!(cluster.snapshot().num_live(), 25);
        drop(cluster);

        let (reopened, reports) =
            ShardedDurable::open(&root, 4, WalConfig::default(), None, None).unwrap();
        assert_eq!(reports.len(), 4);
        let cut = reopened.snapshot();
        assert_eq!(cut.num_live(), 25);
        // the retired trajectory stays retired after recovery
        let g: u32 = 3;
        let (s, l) = ((g % 4) as usize, TrajectoryId(g / 4));
        assert!(!cut.shard(s).live().is_live(l));
    }

    #[test]
    fn batch_apply_assigns_sequential_global_ids() {
        let ds = Dataset::build(&DatasetConfig::small(10, 11)).unwrap();
        let root = tmpdir("batch");
        let mut cluster = ShardedDurable::create(
            Arc::new(ds.network.clone()),
            &ds.store,
            &ds.vocab,
            &root,
            3,
            WalConfig::default(),
            None,
            None,
        )
        .unwrap();
        let ids = cluster
            .apply(vec![
                Mutation::Insert(donor(&ds, 0)),
                Mutation::Retire(TrajectoryId(4)),
                Mutation::Insert(donor(&ds, 1)),
            ])
            .unwrap();
        assert_eq!(ids, vec![TrajectoryId(10), TrajectoryId(11)]);
        let cut = cluster.publish_all().unwrap();
        assert_eq!(cut.num_live(), 11); // 10 − 1 retired + 2 inserted
    }

    #[test]
    fn unknown_global_id_is_a_clean_error() {
        let ds = Dataset::build(&DatasetConfig::small(8, 3)).unwrap();
        let root = tmpdir("unknown");
        let mut cluster = ShardedDurable::create(
            Arc::new(ds.network.clone()),
            &ds.store,
            &ds.vocab,
            &root,
            2,
            WalConfig::default(),
            None,
            None,
        )
        .unwrap();
        let err = cluster.retire(TrajectoryId(99)).unwrap_err();
        assert!(matches!(err, DurableError::Inconsistent(_)), "{err}");
    }
}
