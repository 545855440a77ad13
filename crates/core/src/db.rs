//! The read-only handles the algorithms run against: a [`Database`] over
//! one store and its indexes, and the [`View`] every algorithm takes — one
//! or more such databases (**parts**, the shards of a cluster cut) sharing
//! one road network and one vertex index, their trajectories numbered by
//! one global id space — with the [`TimeChannel`] that reads a view's
//! timestamp indexes as one.

use crate::{similarity, CoreError, UotsQuery};
use std::cell::Cell;
use uots_index::{
    KeywordBlocks, KeywordInvertedIndex, TimeExpansion, TimeScanned, TimestampIndex,
    VertexInvertedIndex,
};
use uots_network::RoadNetwork;
use uots_trajectory::{LiveSet, TrajectoryId, TrajectoryStore};

/// Borrowed view of everything a UOTS algorithm needs: the network, the
/// trajectories, their keyword table and the indexes. Construction is cheap (all references), so
/// one database can serve many concurrent queries.
#[derive(Clone, Copy)]
pub struct Database<'a> {
    /// The road network.
    pub network: &'a RoadNetwork,
    /// The trajectories.
    pub store: &'a TrajectoryStore,
    /// vertex → trajectories: what the expansion search probes on every
    /// settled vertex. Always present on a database [`Database::new`]
    /// builds; `None` only on a shard of a multi-shard cut, whose postings
    /// are in the cut's one index ([`crate::ClusterSnapshot::vertex_index`]).
    pub vertex_index: Option<&'a VertexInvertedIndex<TrajectoryId>>,
    /// The dense per-trajectory keyword table (required: every textual
    /// term reads it).
    pub keyword_blocks: &'a KeywordBlocks,
    /// keyword → trajectories (required by the textual-first baseline).
    pub keyword_index: Option<&'a KeywordInvertedIndex<TrajectoryId>>,
    /// sample-timestamp index (required by the temporal extension).
    pub timestamp_index: Option<&'a TimestampIndex<TrajectoryId>>,
    /// Liveness mask for epoch-based serving: when present, retired
    /// trajectories stay in the (append-only, stably-numbered) store but
    /// are invisible to every algorithm. `None` means all ids are live —
    /// the frozen-dataset behavior.
    pub live: Option<&'a LiveSet>,
}

impl<'a> Database<'a> {
    /// Creates a database from the mandatory parts.
    ///
    /// # Panics
    ///
    /// Panics when the vertex index does not cover the network, or the
    /// keyword table does not have one row per stored trajectory (it was
    /// built for a different revision).
    pub fn new(
        network: &'a RoadNetwork,
        store: &'a TrajectoryStore,
        vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
        keyword_blocks: &'a KeywordBlocks,
    ) -> Self {
        assert_eq!(
            vertex_index.num_keys(),
            network.num_nodes(),
            "vertex index does not match the network"
        );
        Database {
            vertex_index: Some(vertex_index),
            ..Database::unindexed(network, store, keyword_blocks)
        }
    }

    /// [`new`](Self::new) without a vertex index: a shard of a multi-shard
    /// cut.
    ///
    /// # Panics
    ///
    /// Panics when the keyword table does not have one row per stored
    /// trajectory.
    pub(crate) fn unindexed(
        network: &'a RoadNetwork,
        store: &'a TrajectoryStore,
        keyword_blocks: &'a KeywordBlocks,
    ) -> Self {
        assert_eq!(
            keyword_blocks.rows(),
            store.len(),
            "keyword table does not cover the store"
        );
        Database {
            network,
            store,
            vertex_index: None,
            keyword_blocks,
            keyword_index: None,
            timestamp_index: None,
            live: None,
        }
    }

    /// Attaches the keyword inverted index (enables the textual-first
    /// baseline).
    pub fn with_keyword_index(mut self, idx: &'a KeywordInvertedIndex<TrajectoryId>) -> Self {
        self.keyword_index = Some(idx);
        self
    }

    /// Attaches the timestamp index (enables the temporal channel).
    pub fn with_timestamp_index(mut self, idx: &'a TimestampIndex<TrajectoryId>) -> Self {
        self.timestamp_index = Some(idx);
        self
    }

    /// Attaches a liveness mask. The attached indexes must have been built
    /// over the live subset (see `build_*_index_live`), or index-discovered
    /// candidates could include retired trajectories; the mask only guards
    /// the direct store sweeps the algorithms fall back to.
    ///
    /// # Panics
    ///
    /// Panics when the mask does not cover the store.
    pub(crate) fn with_live_set(mut self, live: &'a LiveSet) -> Self {
        assert_eq!(
            live.len(),
            self.store.len(),
            "live set does not cover the store"
        );
        self.live = Some(live);
        self
    }

    /// Whether `id` is visible to queries (always true without a mask).
    #[inline]
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        self.live.is_none_or(|l| l.is_live(id))
    }

    /// Validates that `query` can run against this database.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownLocation`] for a location outside the network;
    /// [`CoreError::MissingIndex`] when the temporal channel is requested
    /// without a timestamp index.
    pub(crate) fn validate(&self, query: &UotsQuery) -> Result<(), CoreError> {
        for &v in query.locations() {
            if !self.network.contains_node(v) {
                return Err(CoreError::UnknownLocation(v));
            }
        }
        if query.options().weights.uses_temporal() && self.timestamp_index.is_none() {
            return Err(CoreError::MissingIndex("timestamp"));
        }
        Ok(())
    }
}

/// How one part's local trajectory ids map into its [`View`]'s global
/// ids: `global = local · stride + offset` — hash partitioning over
/// `stride` parts, this part being part `offset`. `(1, 0)` is the
/// identity of a lone database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMap {
    /// Number of hash shards.
    pub stride: u32,
    /// This part's shard.
    pub offset: u32,
}

impl IdMap {
    /// The global id of local id `local`.
    #[inline]
    pub fn global(&self, local: TrajectoryId) -> TrajectoryId {
        TrajectoryId(local.0 * self.stride + self.offset)
    }
}

/// One part of a [`View`]: a database over its own store and indexes, and
/// the map of its local ids into the view's global ones.
#[derive(Clone, Copy)]
pub struct Part<'a> {
    /// The part's store, keyword table, indexes and live set.
    pub db: Database<'a>,
    /// Local → global trajectory ids.
    pub ids: IdMap,
}

/// What one run over a [`View`] did with one of its parts: the sharded
/// coordinator's effort counters
/// ([`crate::ShardedAnswer::shards_cut`] / `shards_cancelled`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PartFate {
    /// The run touched at least one of the part's trajectories.
    pub walked: bool,
    /// The part's upper bound ([`crate::shard_upper_bound`]) fell strictly below
    /// the run's k-th score: nothing of it can enter the answer, and the
    /// run stopped walking it.
    pub retired: bool,
}

/// The read view every [`crate::algorithms::Algorithm`] runs over: one or
/// more **parts** sharing one road network, whose trajectories are
/// numbered by one global id space — part `p` of `N` holds the global ids
/// `g ≡ p (mod N)` at local id `g / N` — and one vertex index in global
/// ids over every part's live trajectories. A plain database is the
/// one-part view [`View::one`] (the identity map, its own vertex index);
/// a cluster cut is the view over all its shards
/// ([`crate::ClusterSnapshot::view`]). An algorithm runs **once** over the
/// whole view: one expansion per query location, one posting list per
/// settled vertex, one collector keyed by global id, one budget.
pub struct View<'a> {
    parts: Vec<Part<'a>>,
    vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
    id_bound: usize,
    fates: Vec<Cell<PartFate>>,
}

impl<'a> View<'a> {
    /// The one-part view of `db`: global ids are its own.
    ///
    /// # Panics
    ///
    /// Panics when `db` has no vertex index (a shard of a multi-shard cut:
    /// search its cut instead).
    pub fn one(db: Database<'a>) -> Self {
        let vertex_index = db
            .vertex_index
            .expect("a shard of a multi-shard cut is searched through its cut");
        let id_bound = db.store.len();
        View::new(vec![db], vertex_index, id_bound)
    }

    /// The view over the hash parts `dbs` — global id `g` on part
    /// `g % N` at local id `g / N` — whose live trajectories `vertex_index`
    /// lists in global ids, every one of which is below `id_bound` (it
    /// sizes the per-trajectory tables, so keep it tight).
    ///
    /// # Panics
    ///
    /// Panics without parts, or when they and the index are not over one
    /// network.
    pub(crate) fn new(
        dbs: Vec<Database<'a>>,
        vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
        id_bound: usize,
    ) -> Self {
        assert!(!dbs.is_empty(), "a view needs at least one part");
        let nodes = dbs[0].network.num_nodes();
        assert!(
            dbs.iter().all(|db| db.network.num_nodes() == nodes),
            "the parts of a view share one road network"
        );
        assert_eq!(
            vertex_index.num_keys(),
            nodes,
            "vertex index does not match the network"
        );
        let stride = dbs.len() as u32;
        let parts: Vec<Part<'a>> = (0..stride)
            .zip(dbs)
            .map(|(offset, db)| Part {
                db,
                ids: IdMap { stride, offset },
            })
            .collect();
        let fates = parts.iter().map(|_| Cell::default()).collect();
        View {
            parts,
            vertex_index,
            id_bound,
            fates,
        }
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Part<'a>] {
        &self.parts
    }

    /// vertex → the global ids of every part's live trajectories through
    /// it, ascending.
    pub fn vertex_index(&self) -> &'a VertexInvertedIndex<TrajectoryId> {
        self.vertex_index
    }

    /// The road network every part serves.
    pub(crate) fn network(&self) -> &'a RoadNetwork {
        self.parts[0].db.network
    }

    /// One past the largest global id of the view.
    pub fn id_bound(&self) -> usize {
        self.id_bound
    }

    /// Validates `query` against every part ([`Database::validate`]).
    ///
    /// # Errors
    ///
    /// The first part's rejection.
    pub(crate) fn validate(&self, query: &UotsQuery) -> Result<(), CoreError> {
        self.parts.iter().try_for_each(|p| p.db.validate(query))
    }

    /// What the last run over this view did with each part.
    pub(crate) fn fates(&self) -> Vec<PartFate> {
        self.fates.iter().map(Cell::get).collect()
    }
}

/// One query time's temporal source over the parts of a [`View`]: their
/// timestamp expansions merged by gap (ties to the lower part), so
/// entries come out in nondecreasing gap and [`radius`](Self::radius)
/// lower-bounds every entry not yet delivered — the contract of a single
/// [`TimeExpansion`], which a one-part channel reproduces step for step.
pub struct TimeChannel<'a> {
    /// Per part: its expansion and the entry it delivered but the merge
    /// has not yet.
    heads: Vec<(
        TimeExpansion<'a, TrajectoryId>,
        Option<TimeScanned<TrajectoryId>>,
    )>,
    /// Gap of the most recently delivered entry, `∞` once every part's
    /// entries are delivered. Only `new` and `next_scanned` move the
    /// heads, so they keep it current and the reads stay O(1).
    radius: f64,
}

impl<'a> TimeChannel<'a> {
    /// The channel expanding from time `t` over a view's [`View::parts`].
    ///
    /// # Panics
    ///
    /// Panics when a part has no timestamp index (`View::validate`
    /// rejects temporal queries over such views).
    pub fn new(parts: &[Part<'a>], t: f64) -> Self {
        let heads = parts
            .iter()
            .map(|p| {
                let idx =
                    p.db.timestamp_index
                        .expect("validated: temporal channel has its index");
                (idx.expand_from(t), None)
            })
            .collect();
        let mut channel = TimeChannel { heads, radius: 0.0 };
        if channel.drained() {
            channel.radius = f64::INFINITY;
        }
        channel
    }

    /// Whether every part's entries have been delivered.
    fn drained(&self) -> bool {
        self.heads
            .iter()
            .all(|(exp, head)| head.is_none() && exp.is_exhausted())
    }

    /// The next-nearest entry in time and the part it belongs to (the
    /// entry's value is that part's local id).
    pub fn next_scanned(&mut self) -> Option<(usize, TimeScanned<TrajectoryId>)> {
        let mut best: Option<(usize, f64)> = None;
        for (p, (exp, head)) in self.heads.iter_mut().enumerate() {
            if head.is_none() {
                *head = exp.next_scanned();
            }
            if let Some(h) = head {
                if best.is_none_or(|(_, dt)| h.dt < dt) {
                    best = Some((p, h.dt));
                }
            }
        }
        let (p, _) = best?;
        let scanned = self.heads[p].1.take()?;
        self.radius = if self.drained() {
            f64::INFINITY
        } else {
            scanned.dt
        };
        Some((p, scanned))
    }

    /// Whether every part's entries have been delivered.
    pub fn is_exhausted(&self) -> bool {
        self.radius == f64::INFINITY
    }

    /// Gap of the most recently delivered entry: a lower bound on every
    /// entry not yet delivered (`∞` once exhausted).
    pub fn radius(&self) -> f64 {
        self.radius
    }
}

/// The part of `num_parts` hash parts holding global id `g`, and its local
/// id there. One part is the identity, without a division.
#[inline]
pub(crate) fn locate(num_parts: usize, g: TrajectoryId) -> (usize, TrajectoryId) {
    match num_parts as u32 {
        1 => (0, g),
        n => ((g.0 % n) as usize, TrajectoryId(g.0 / n)),
    }
}

/// The sound similarity upper bound of every live trajectory of a part
/// whose keyword index is `keyword_index`: `w_s·1 + w_tx·SimT_ub + w_tm·1`.
///
/// With a non-empty query keyword set and a keyword index,
/// `SimT_ub = |{q ∈ Q : df(q) > 0}| / |Q|`: a live trajectory can only
/// intersect `Q` on keywords that have at least one posting, and the
/// Jaccard union is `|Q ∪ T| ≥ |Q|`. An empty `Q` or a part without a
/// keyword index falls back to the trivial bound `1.0`. Spatial and
/// temporal channels are bounded trivially — network distances carry no
/// part-local structure that would be sound to exploit.
///
/// The terms are combined in [`similarity::combine`]'s own operation
/// order, and each dominates its exact counterpart; rounding is monotone,
/// so no trajectory's similarity exceeds the bound by even an ulp.
pub(crate) fn part_upper_bound(
    keyword_index: Option<&KeywordInvertedIndex<TrajectoryId>>,
    query: &UotsQuery,
) -> f64 {
    let text_ub = match keyword_index {
        Some(idx) if !query.keywords().is_empty() => {
            let present = query
                .keywords()
                .iter()
                .filter(|&k| idx.document_frequency(k) > 0)
                .count();
            present as f64 / query.keywords().len() as f64
        }
        _ => 1.0,
    };
    similarity::combine(query, 1.0, text_ub, 1.0)
}

/// Part retirement for one run over a [`View`]: a part stops being walked
/// once its [`part_upper_bound`] falls **strictly** below the running
/// k-th score — everything in it scores at most the bound, so nothing of
/// it can enter the answer, not even on the id tie-break. A lone part is
/// never retired: its bound dominates every match, the k-th included.
pub(crate) struct PartCut {
    bounds: Vec<f64>,
    fates: Vec<PartFate>,
    /// The smallest bound of a part not yet retired: the one compare a
    /// rising k-th pays while no retirement is due.
    lowest_open: f64,
}

impl PartCut {
    pub(crate) fn new(view: &View<'_>, query: &UotsQuery) -> Self {
        let bounds: Vec<f64> = match view.parts() {
            [_] => vec![f64::INFINITY],
            parts => parts
                .iter()
                .map(|p| part_upper_bound(p.db.keyword_index, query))
                .collect(),
        };
        PartCut {
            lowest_open: bounds.iter().copied().fold(f64::INFINITY, f64::min),
            fates: vec![PartFate::default(); bounds.len()],
            bounds,
        }
    }

    /// Whether part `p` is retired.
    #[inline]
    pub(crate) fn is_retired(&self, p: usize) -> bool {
        self.fates[p].retired
    }

    /// Notes that the run touched a trajectory of part `p`.
    #[inline]
    pub(crate) fn walk(&mut self, p: usize) {
        self.fates[p].walked = true;
    }

    /// Retires every part whose bound is strictly below `kth`.
    #[inline]
    pub(crate) fn retire_below(&mut self, kth: f64) {
        if kth > self.lowest_open {
            self.retire_parts(kth);
        }
    }

    fn retire_parts(&mut self, kth: f64) {
        self.lowest_open = f64::INFINITY;
        for (fate, &bound) in self.fates.iter_mut().zip(&self.bounds) {
            if bound < kth {
                fate.retired = true;
            } else {
                self.lowest_open = self.lowest_open.min(bound);
            }
        }
    }

    /// Ends the run at the final k-th score `kth` (which retires what it
    /// proves irrelevant) and records the fates in `view`.
    pub(crate) fn report(mut self, view: &View<'_>, kth: f64) {
        self.retire_below(kth);
        for (cell, &fate) in view.fates.iter().zip(&self.fates) {
            cell.set(fate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::KeywordSet;
    use uots_trajectory::{Sample, Trajectory};

    fn fixture() -> (RoadNetwork, TrajectoryStore) {
        let net = grid_city(&GridCityConfig::tiny(3)).unwrap();
        let mut store = TrajectoryStore::new();
        store.push(
            Trajectory::new(
                vec![
                    Sample {
                        node: NodeId(0),
                        time: 0.0,
                    },
                    Sample {
                        node: NodeId(1),
                        time: 60.0,
                    },
                ],
                KeywordSet::empty(),
            )
            .unwrap(),
        );
        (net, store)
    }

    #[test]
    fn validate_checks_locations() {
        let (net, store) = fixture();
        let (vidx, kb) = (
            store.build_vertex_index(net.num_nodes()),
            store.build_keyword_blocks(),
        );
        let db = Database::new(&net, &store, &vidx, &kb);
        let ok = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        assert!(db.validate(&ok).is_ok());
        let bad = UotsQuery::new(vec![NodeId(99)], KeywordSet::empty()).unwrap();
        assert!(matches!(
            db.validate(&bad),
            Err(CoreError::UnknownLocation(NodeId(99)))
        ));
    }

    #[test]
    fn temporal_channel_requires_timestamp_index() {
        let (net, store) = fixture();
        let (vidx, kb) = (
            store.build_vertex_index(net.num_nodes()),
            store.build_keyword_blocks(),
        );
        let db = Database::new(&net, &store, &vidx, &kb);
        let opts = crate::QueryOptions {
            weights: crate::Weights::new(1.0, 0.0, 1.0).unwrap(),
            ..Default::default()
        };
        let q = UotsQuery::with_options(vec![NodeId(0)], KeywordSet::empty(), vec![100.0], opts)
            .unwrap();
        assert!(matches!(db.validate(&q), Err(CoreError::MissingIndex(_))));

        let tidx = store.build_timestamp_index();
        let db = db.with_timestamp_index(&tidx);
        assert!(db.validate(&q).is_ok());
    }

    #[test]
    #[should_panic(expected = "vertex index does not match")]
    fn mismatched_vertex_index_panics() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes() + 5);
        let _ = Database::new(&net, &store, &vidx, &store.build_keyword_blocks());
    }

    #[test]
    #[should_panic(expected = "keyword table does not cover the store")]
    fn a_keyword_table_of_another_revision_panics() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let _ = Database::new(
            &net,
            &store,
            &vidx,
            &TrajectoryStore::new().build_keyword_blocks(),
        );
    }
}
