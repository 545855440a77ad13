//! Sharded durable ingest: one WAL + checkpoint lineage **per shard**.
//!
//! [`ShardedDurable`] is the coordinator of
//! [`core::shard`](uots_core::shard) — the one [`Cluster`] — over
//! [`DurableIngest`] shard units: the same map-free bijection `g = l·N + s`,
//! the same routing, batch split and parallel publish as the volatile
//! [`ShardedCluster`](uots_core::ShardedCluster), so a sharded cluster
//! recovered from disk answers queries bit-identically to the unsharded
//! engine over the same history. What this module adds is the lineage, and
//! it is the only way to create or resume one.
//!
//! ## Per-shard durability lineage
//!
//! Each shard owns a private directory holding its own WAL segments and
//! checkpoints: `shard-0/ … shard-(N-1)/` under the cluster root at
//! `N ≥ 2`, the root itself at `N = 1` (the flat layout an unsharded
//! `--wal-dir` has always had; global id = local id).
//! [`shards_on_disk`] reads the count back from the layout, for the
//! constructors and for the `uots` durability commands. The
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
//! checkpoint of its partition, so [`open`](ShardedDurable::open) never
//! needs the base dataset: a shard directory is self-contained from birth.
//! [`open_or_create`](ShardedDurable::open_or_create) — what `uots-serve`
//! and `uots ingest` call — does the same at `N ≥ 2`; at `N = 1` it skips
//! the seed checkpoint and keeps the base dataset as the lineage's
//! recovery base. It takes the dataset by value: a fresh lineage moves
//! the network and trajectories into its shards, and a resumed one at
//! `N ≥ 2` drops the dataset before it recovers.
//!
//! At `N ≥ 2` every shard's manager is seeded without a vertex index:
//! the coordinator keeps the cut's one ([`uots_core::shard`]).

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::durable::{
    list_checkpoints, recover_shard, DurableError, DurableIngest, RecoveryReport,
};
use uots_core::shard::{partition, Cluster, Shard};
use uots_core::storage::{RetryPolicy, StdFs};
use uots_core::wal::{self, WalConfig, WalError};
use uots_core::{EpochManager, EpochSnapshot, Mutation};
use uots_datagen::Dataset;
use uots_network::RoadNetwork;
use uots_obs::{EventJournal, MetricsRegistry};
use uots_text::Vocabulary;
use uots_trajectory::{LiveSet, TrajectoryId, TrajectoryStore};

/// The shard directory for shard `s` under the root of a lineage of two
/// shards or more.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// Where shard `s` of a `num_shards`-shard lineage lives: the root itself
/// for one shard, [`shard_dir`] otherwise.
fn lineage_dir(root: &Path, num_shards: usize, shard: usize) -> PathBuf {
    if num_shards == 1 {
        root.to_path_buf()
    } else {
        shard_dir(root, shard)
    }
}

/// How many shards the lineage under `root` was written with: `Some(1)`
/// for the flat layout (WAL segments or checkpoints directly in `root`),
/// else the number of `shard-<s>` directories, `None` when `root` holds
/// neither (nothing to resume).
pub fn shards_on_disk(root: &Path) -> Result<Option<usize>, DurableError> {
    if !wal::list_segments(&StdFs, root)?.is_empty() || !list_checkpoints(&StdFs, root).is_empty() {
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
/// adds the lineage — the directory layout, its constructors, health and
/// explicit checkpoints.
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
        let root = root.as_ref();
        let lineage = Lineage::new(root, num_shards, config, checkpoint_every, registry, None);
        lineage.seed(network, store.clone(), vocab, true)
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
        let root = root.as_ref();
        let lineage = Lineage::new(root, num_shards, config, checkpoint_every, registry, None);
        lineage.resume(None)
    }

    /// Opens the `shards`-shard cluster under `root` for a server seeded
    /// from `base` — resumed when the directory holds a lineage (returning
    /// one recovery report per shard), created otherwise (no reports), the
    /// dataset's network and trajectories moved into the shards —
    /// with every shard, its recovery included, reporting to `registry`
    /// and `journal` (`None`: detached). At one shard the lineage is flat,
    /// is not seeded with a checkpoint and recovers with `base` as its
    /// base; at `N ≥ 2` this is [`open`](Self::open) or
    /// [`create`](Self::create). A lineage written with another shard
    /// count is refused with [`DurableError::Inconsistent`]: the global
    /// ids `g = l·N + s` only mean anything under the `N` they were issued
    /// with.
    pub fn open_or_create(
        base: Dataset,
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
        let lineage = Lineage::new(root, shards, config, checkpoint_every, registry, journal);
        let flat = shards == 1;
        if on_disk.is_some() {
            return lineage.resume(flat.then_some(&base));
        }
        let (network, store, vocab) = base.into_parts();
        let fresh = lineage.seed(Arc::new(network), store, &vocab, !flat)?;
        Ok((fresh, Vec::new()))
    }
}

/// What every shard of one lineage is opened with.
struct Lineage<'a> {
    root: &'a Path,
    num_shards: usize,
    config: WalConfig,
    checkpoint_every: Option<u64>,
    registry: MetricsRegistry,
    journal: EventJournal,
}

impl<'a> Lineage<'a> {
    fn new(
        root: &'a Path,
        num_shards: usize,
        config: WalConfig,
        checkpoint_every: Option<u64>,
        registry: Option<&MetricsRegistry>,
        journal: Option<&EventJournal>,
    ) -> Self {
        Lineage {
            root,
            num_shards,
            config,
            checkpoint_every,
            registry: registry.cloned().unwrap_or_default(),
            journal: journal.cloned().unwrap_or_default(),
        }
    }

    /// Starts a log per shard over its hash partition of `store` (moved
    /// into the shards, see [`partition`]), each seeded with a checkpoint
    /// of it when `self_contained`.
    fn seed(
        self,
        network: Arc<RoadNetwork>,
        store: TrajectoryStore,
        vocab: &Vocabulary,
        self_contained: bool,
    ) -> Result<ShardedDurable, DurableError> {
        let (reg, jrn) = (Some(&self.registry), Some(&self.journal));
        let own_index = self.num_shards == 1;
        let mut shards = Vec::with_capacity(self.num_shards);
        for (s, part) in partition(store, self.num_shards).into_iter().enumerate() {
            let dir = lineage_dir(self.root, self.num_shards, s);
            std::fs::create_dir_all(&dir).map_err(|e| DurableError::Wal(WalError::Io(e)))?;
            let live = LiveSet::all_live(part.len());
            let network = Arc::clone(&network);
            let manager =
                EpochManager::from_parts(network, part, live, vocab.len(), 0, own_index, reg, jrn);
            let mut ingest = DurableIngest::over_log(
                manager,
                vocab.clone(),
                0,
                &dir,
                self.config,
                self.checkpoint_every,
                reg,
                Arc::new(StdFs),
                RetryPolicy::default(),
                jrn,
            )?;
            if self_contained {
                ingest.checkpoint_now()?;
            }
            shards.push(ingest);
        }
        Ok(ShardedDurable(Cluster::over(shards, &self.registry)))
    }

    /// Recovers every shard in parallel (`base` is the recovery base of a
    /// one-shard lineage) and resumes its log.
    fn resume(
        self,
        base: Option<&Dataset>,
    ) -> Result<(ShardedDurable, Vec<RecoveryReport>), DurableError> {
        let (reg, jrn) = (Some(&self.registry), Some(&self.journal));
        let this = &self;
        let recovered: Vec<Result<(DurableIngest, RecoveryReport), DurableError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..this.num_shards)
                    .map(|s| {
                        let dir = lineage_dir(this.root, this.num_shards, s);
                        scope.spawn(move || {
                            let own_index = this.num_shards == 1;
                            let rec = recover_shard(&StdFs, &dir, base, own_index, reg, jrn)?;
                            let report = rec.report.clone();
                            let ingest = DurableIngest::resume(
                                rec,
                                &dir,
                                this.config,
                                this.checkpoint_every,
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
        let mut shards = Vec::with_capacity(self.num_shards);
        let mut reports = Vec::with_capacity(self.num_shards);
        for r in recovered {
            let (ingest, report) = r?;
            shards.push(ingest);
            reports.push(report);
        }
        Ok((
            ShardedDurable(Cluster::over(shards, &self.registry)),
            reports,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_core::{ClusterSnapshot, Partitioner, ShardedCluster};
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
