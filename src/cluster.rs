//! Sharded durable ingest: one WAL + checkpoint lineage **per shard**.
//!
//! [`ShardedDurable`] is the coordinator of
//! [`core::shard`](uots_core::shard) — the one [`Cluster`] — over
//! [`DurableIngest`] shard units: the same map-free bijection `g = l·N + s`,
//! the same routing, batch split and parallel publish as the volatile
//! [`ShardedCluster`](uots_core::ShardedCluster), so a sharded cluster
//! recovered from disk answers queries bit-identically to the unsharded
//! engine over the same history. What this module adds is the lineage.
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
//! * **Acks are per-shard.** A cross-shard [`apply`](Cluster::apply)
//!   batch is split into per-shard sub-batches, each logged as one WAL
//!   record in its own log before its shard applies any of it. The
//!   sub-batch is atomic; the cross-shard batch is not — a crash can
//!   persist some shards' sub-batches and not others, but never part of
//!   one. A served `/ingest` body is one such batch.
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

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::durable::{
    list_checkpoints, recover_with_journal, DurableError, DurableIngest, DurableStatus,
    RecoveryReport,
};
use uots_core::shard::{partition, Cluster, ClusterSnapshot, Shard};
use uots_core::storage::{RetryPolicy, StdFs};
use uots_core::wal::{self, WalConfig, WalError};
use uots_core::{EpochManager, EpochSnapshot, Mutation};
use uots_datagen::Dataset;
use uots_network::RoadNetwork;
use uots_obs::{EventJournal, MetricsRegistry};
use uots_text::Vocabulary;
use uots_trajectory::{TrajectoryId, TrajectoryStore};

/// The shard directory for shard `s` under a cluster root.
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

/// The durable shard unit: every sub-batch is logged as one WAL record
/// before any of it is applied, and a shard degraded to read-only takes no
/// inserts.
impl Shard for DurableIngest {
    type Error = DurableError;

    fn manager(&self) -> &EpochManager {
        DurableIngest::manager(self)
    }

    fn writable(&self) -> bool {
        !self.is_degraded()
    }

    fn apply(&mut self, batch: Vec<Mutation>) -> Result<Vec<TrajectoryId>, DurableError> {
        DurableIngest::apply(self, batch).map(|(_, ids)| ids)
    }

    fn publish(&mut self) -> Result<Arc<EpochSnapshot>, DurableError> {
        DurableIngest::publish(self)
    }
}

/// `N` hash-partitioned [`DurableIngest`]s behind the one coordinator: it
/// dereferences to the [`Cluster`] that routes, applies and publishes, and
/// adds the lineage — the `shard-<s>/` layout, its constructors, health
/// and explicit checkpoints.
pub struct ShardedDurable(Cluster<DurableIngest>);

impl Deref for ShardedDurable {
    type Target = Cluster<DurableIngest>;

    fn deref(&self) -> &Cluster<DurableIngest> {
        &self.0
    }
}

impl DerefMut for ShardedDurable {
    fn deref_mut(&mut self) -> &mut Cluster<DurableIngest> {
        &mut self.0
    }
}

/// The coordinator without the lineage's extras, e.g. for a server.
impl From<ShardedDurable> for Cluster<DurableIngest> {
    fn from(cluster: ShardedDurable) -> Self {
        cluster.0
    }
}

impl ShardedDurable {
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
        let registry = registry.cloned().unwrap_or_default();
        let journal = journal.cloned().unwrap_or_default();
        let mut shards = Vec::with_capacity(num_shards);
        for (s, part) in partition(store, num_shards).into_iter().enumerate() {
            let dir = shard_dir(root, s);
            std::fs::create_dir_all(&dir).map_err(|e| DurableError::Wal(WalError::Io(e)))?;
            let mut ingest = DurableIngest::create_with_backend(
                Arc::clone(&network),
                part,
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
        Ok(ShardedDurable(Cluster::over(shards, &registry)))
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
        Ok((ShardedDurable(Cluster::over(shards, &registry)), reports))
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
            let cluster = Cluster::over(vec![ingest], &registry);
            return Ok((ShardedDurable(cluster), Vec::from_iter(report)));
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

    /// Per-shard health summaries.
    pub fn status(&self) -> Vec<DurableStatus> {
        (0..self.num_shards())
            .map(|s| self.shard(s).status())
            .collect()
    }

    /// Indexes of shards currently degraded to read-only.
    pub fn degraded_shards(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&s| self.shard(s).is_degraded())
            .collect()
    }

    /// Cuts a checkpoint on every shard unconditionally (publishing
    /// pending mutations first), in parallel like
    /// [`publish_all`](Cluster::publish_all). Propagates the first failure.
    pub fn checkpoint_now(&mut self) -> Result<ClusterSnapshot, DurableError> {
        self.0.publish_with(DurableIngest::checkpoint_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_core::{Partitioner, ShardedCluster};
    use uots_datagen::{Dataset, DatasetConfig};
    use uots_trajectory::Trajectory;

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

    /// A batch may retire the id its own insert receives: the retire is
    /// routed with the batch's earlier inserts counted as issued, by the
    /// volatile and the durable coordinator alike, and the retire outlives
    /// a reopen.
    #[test]
    fn a_batch_retires_what_it_inserts_at_any_shard_count() {
        let ds = Dataset::build(&DatasetConfig::small(10, 5)).unwrap();
        let network = Arc::new(ds.network.clone());
        let g = TrajectoryId(10);
        let batch = || vec![Mutation::Insert(donor(&ds, 0)), Mutation::Retire(g)];
        for n in [1u32, 2, 4] {
            let retired = |cut: &ClusterSnapshot| {
                let (s, l) = ((g.0 % n) as usize, TrajectoryId(g.0 / n));
                cut.shard(s).store().len() > l.index() && !cut.shard(s).live().is_live(l)
            };
            let shards = n as usize;
            let mut volatile = ShardedCluster::new(
                Arc::clone(&network),
                &ds.store,
                ds.vocab.len(),
                shards,
                Partitioner::Hash,
            );
            assert_eq!(volatile.apply(batch()).unwrap(), [g], "{n} shard(s)");
            assert!(retired(&volatile.publish_all().unwrap()), "{n} shard(s)");

            let root = tmpdir(&format!("own-insert-{n}"));
            let config = WalConfig::default();
            let mut durable = ShardedDurable::create(
                Arc::clone(&network),
                &ds.store,
                &ds.vocab,
                &root,
                shards,
                config,
                None,
                None,
            )
            .unwrap();
            assert_eq!(durable.apply(batch()).unwrap(), [g], "{n} shard(s)");
            assert!(retired(&durable.publish_all().unwrap()), "{n} shard(s)");
            drop(durable);
            let (reopened, _) = ShardedDurable::open(&root, shards, config, None, None).unwrap();
            assert!(retired(&reopened.snapshot()), "{n} shard(s), reopened");
        }
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
