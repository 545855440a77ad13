//! Network-constrained trajectories and their in-memory store.
//!
//! A trajectory is a finite, time-ordered sequence of samples
//! `⟨(p₁, t₁), …, (p_n, t_n)⟩` whose sample points are vertices of a road
//! network (the paper assumes map-matched data) and whose timestamps live on
//! a 24-hour axis. Each trajectory additionally carries the textual
//! attribute set that the UOTS query matches against.

use crate::TrajectoryError;
use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::Arc;
use uots_index::{
    KeywordBlocks, KeywordInvertedIndex, TimestampIndex, VertexInvertedIndex, DAY_SECONDS,
};
use uots_network::NodeId;
use uots_text::KeywordSet;

/// Identifier of a trajectory within a [`TrajectoryStore`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TrajectoryId(pub u32);

impl TrajectoryId {
    /// Dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TrajectoryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// One timestamped sample point of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The network vertex the sample is map-matched to.
    pub node: NodeId,
    /// Time of day in seconds, `[0, 86400]`.
    pub time: f64,
}

/// A validated, immutable trajectory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trajectory {
    samples: Vec<Sample>,
    keywords: KeywordSet,
}

impl Trajectory {
    /// Validates and constructs a trajectory.
    ///
    /// # Errors
    ///
    /// * [`TrajectoryError::Empty`] — no samples;
    /// * [`TrajectoryError::BadTimestamp`] — a timestamp is non-finite or
    ///   outside the 24-hour axis;
    /// * [`TrajectoryError::TimeNotMonotone`] — timestamps decrease.
    pub fn new(samples: Vec<Sample>, keywords: KeywordSet) -> Result<Self, TrajectoryError> {
        if samples.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        let mut prev = f64::NEG_INFINITY;
        for (i, s) in samples.iter().enumerate() {
            if !s.time.is_finite() || !(0.0..=DAY_SECONDS).contains(&s.time) {
                return Err(TrajectoryError::BadTimestamp {
                    index: i,
                    time: s.time,
                });
            }
            if s.time < prev {
                return Err(TrajectoryError::TimeNotMonotone { index: i });
            }
            prev = s.time;
        }
        Ok(Trajectory { samples, keywords })
    }

    /// Number of samples `|τ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// A trajectory is never empty (validated at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The samples in time order.
    #[inline]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterator over the sample vertices.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.samples.iter().map(|s| s.node)
    }

    /// Iterator over the sample timestamps.
    pub fn times(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.time)
    }

    /// The textual attributes of the trajectory.
    #[inline]
    pub fn keywords(&self) -> &KeywordSet {
        &self.keywords
    }

    /// `[first timestamp, last timestamp]` — the temporal range.
    pub fn time_range(&self) -> (f64, f64) {
        (
            self.samples.first().expect("non-empty").time,
            self.samples.last().expect("non-empty").time,
        )
    }

    /// Trip duration in seconds.
    pub(crate) fn duration(&self) -> f64 {
        let (a, b) = self.time_range();
        b - a
    }
}

// Hand-written so that no deserialization path can skip the validation of
// `Trajectory::new` (an out-of-day time would panic the timestamp index at
// the next publish; decreasing times would be logged, then refused by the
// WAL decoder at recovery).
impl Deserialize for Trajectory {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        if content.as_map().is_none() {
            return Err(DeError::invalid_type("map", content));
        }
        let field = |name: &str| {
            content
                .get(name)
                .ok_or_else(|| DeError::missing_field(name))
        };
        Trajectory::new(
            Vec::deserialize(field("samples")?)?,
            KeywordSet::deserialize(field("keywords")?)?,
        )
        .map_err(DeError::custom)
    }
}

/// `log2` of the trajectories per block of a [`TrajectoryStore`].
const BLOCK_BITS: usize = 8;
/// Trajectories per block of a [`TrajectoryStore`].
const BLOCK_LEN: usize = 1 << BLOCK_BITS;

/// An append-only collection of trajectories with dense ids, plus index
/// construction.
///
/// The trajectories sit in fixed-size blocks behind `Arc`, so a `clone` is
/// a copy of block pointers: an epoch snapshot and the writer's store
/// share every trajectory, and a [`push`](Self::push) copies at most the
/// partly filled last block, and only while a clone still shares it.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryStore {
    blocks: Vec<Arc<Vec<Trajectory>>>,
    len: usize,
}

impl TrajectoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with a capacity hint.
    pub fn with_capacity(n: usize) -> Self {
        TrajectoryStore {
            blocks: Vec::with_capacity(n.div_ceil(BLOCK_LEN)),
            len: 0,
        }
    }

    /// Appends a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory) -> TrajectoryId {
        let id = TrajectoryId(self.len as u32);
        if self.len.is_multiple_of(BLOCK_LEN) {
            self.blocks.push(Arc::new(Vec::with_capacity(BLOCK_LEN)));
        }
        let block = Arc::make_mut(self.blocks.last_mut().expect("a block has room"));
        // a block copied off a clone has no spare capacity
        block.reserve_exact(BLOCK_LEN - block.len());
        block.push(t);
        self.len += 1;
        id
    }

    /// The trajectory with id `id`.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    #[inline]
    pub fn get(&self, id: TrajectoryId) -> &Trajectory {
        let i = id.index();
        &self.blocks[i >> BLOCK_BITS][i & (BLOCK_LEN - 1)]
    }

    /// Number of stored trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over `(id, trajectory)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TrajectoryId, &Trajectory)> {
        self.ids().map(|id| (id, self.get(id)))
    }

    /// Iterator over all ids.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = TrajectoryId> {
        (0..self.len as u32).map(TrajectoryId)
    }

    /// The trajectories in id order, by value. A block no clone shares
    /// is moved out, samples and all, and freed once drained; a block a
    /// clone still shares is copied, and the clone keeps its own.
    pub fn into_trajectories(self) -> impl Iterator<Item = Trajectory> {
        self.blocks
            .into_iter()
            .flat_map(|block| Arc::try_unwrap(block).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Builds the vertex → trajectory inverted index the expansion search
    /// probes (each trajectory registered once per *distinct* vertex).
    pub fn build_vertex_index(&self, num_vertices: usize) -> VertexInvertedIndex<TrajectoryId> {
        VertexInvertedIndex::build(
            num_vertices,
            self.iter()
                .flat_map(|(id, t)| t.nodes().map(move |v| (v, id))),
        )
    }

    /// Builds the keyword → trajectory inverted index used by the textual
    /// baseline.
    pub fn build_keyword_index(&self, vocab_len: usize) -> KeywordInvertedIndex<TrajectoryId> {
        KeywordInvertedIndex::build(
            vocab_len,
            self.iter()
                .flat_map(|(id, t)| t.keywords().iter().map(move |k| (k, id))),
        )
    }

    /// Builds the dense keyword table every query's textual term reads:
    /// row `i` holds trajectory `i`'s keywords.
    pub fn build_keyword_blocks(&self) -> KeywordBlocks {
        let sets: Vec<&KeywordSet> = self.iter().map(|(_, t)| t.keywords()).collect();
        KeywordBlocks::from_sets(sets.iter().copied())
    }

    /// Builds the sample-timestamp index for the temporal extension.
    pub fn build_timestamp_index(&self) -> TimestampIndex<TrajectoryId> {
        TimestampIndex::build(
            self.iter()
                .flat_map(|(id, t)| t.times().map(move |time| (time, id))),
        )
    }

    /// Like [`build_vertex_index`](Self::build_vertex_index), covering only
    /// the ids `live` marks live — the per-epoch index a serving snapshot
    /// carries so retired trajectories are never discovered spatially.
    pub fn build_vertex_index_live(
        &self,
        num_vertices: usize,
        live: &crate::LiveSet,
    ) -> VertexInvertedIndex<TrajectoryId> {
        VertexInvertedIndex::build(
            num_vertices,
            live.iter_live()
                .flat_map(|id| self.get(id).nodes().map(move |v| (v, id))),
        )
    }

    /// Like [`build_keyword_index`](Self::build_keyword_index), covering
    /// only the live ids.
    pub fn build_keyword_index_live(
        &self,
        vocab_len: usize,
        live: &crate::LiveSet,
    ) -> KeywordInvertedIndex<TrajectoryId> {
        KeywordInvertedIndex::build(
            vocab_len,
            live.iter_live()
                .flat_map(|id| self.get(id).keywords().iter().map(move |k| (k, id))),
        )
    }

    /// Like [`build_timestamp_index`](Self::build_timestamp_index),
    /// covering only the live ids.
    pub fn build_timestamp_index_live(
        &self,
        live: &crate::LiveSet,
    ) -> TimestampIndex<TrajectoryId> {
        TimestampIndex::build(
            live.iter_live()
                .flat_map(|id| self.get(id).times().map(move |time| (time, id))),
        )
    }
}

impl std::ops::Index<TrajectoryId> for TrajectoryStore {
    type Output = Trajectory;

    fn index(&self, id: TrajectoryId) -> &Trajectory {
        self.get(id)
    }
}

// A sequence of trajectories in id order: the blocks are a memory layout,
// not part of the value (and the vendored serde has no `Arc`).
impl Serialize for TrajectoryStore {
    fn serialize(&self) -> Content {
        Content::Seq(self.iter().map(|(_, t)| t.serialize()).collect())
    }
}

impl Deserialize for TrajectoryStore {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let items = content
            .as_seq()
            .ok_or_else(|| DeError::invalid_type("sequence", content))?;
        let mut store = TrajectoryStore::with_capacity(items.len());
        for item in items {
            store.push(Trajectory::deserialize(item)?);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_text::KeywordId;

    fn sample(v: u32, t: f64) -> Sample {
        Sample {
            node: NodeId(v),
            time: t,
        }
    }

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn valid_trajectory_construction() {
        let t = Trajectory::new(
            vec![sample(0, 100.0), sample(1, 200.0), sample(0, 200.0)],
            kws(&[1, 2]),
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.time_range(), (100.0, 200.0));
        assert_eq!(t.duration(), 100.0);
        assert!(t.samples().iter().any(|s| s.node == NodeId(1)));
        assert_eq!(t.keywords().len(), 2);
    }

    #[test]
    fn validation_rejects_bad_trajectories() {
        assert!(matches!(
            Trajectory::new(vec![], kws(&[])),
            Err(TrajectoryError::Empty)
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, -5.0)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { index: 0, .. })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, 1e9)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { .. })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, 100.0), sample(1, 50.0)], kws(&[])),
            Err(TrajectoryError::TimeNotMonotone { index: 1 })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, f64::NAN)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { .. })
        ));
    }

    #[test]
    fn equal_consecutive_timestamps_are_allowed() {
        // two GPS fixes in the same second are common in real data
        assert!(Trajectory::new(vec![sample(0, 5.0), sample(1, 5.0)], kws(&[])).is_ok());
    }

    #[test]
    fn store_ids_are_dense() {
        let mut s = TrajectoryStore::new();
        let a = s.push(Trajectory::new(vec![sample(0, 0.0)], kws(&[])).unwrap());
        let b = s.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[])).unwrap());
        assert_eq!(a, TrajectoryId(0));
        assert_eq!(b, TrajectoryId(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s[a].samples()[0].node, NodeId(0));
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn vertex_index_registers_distinct_vertices_once() {
        let mut s = TrajectoryStore::new();
        // revisits vertex 0
        let id = s.push(
            Trajectory::new(
                vec![sample(0, 0.0), sample(1, 1.0), sample(0, 2.0)],
                kws(&[]),
            )
            .unwrap(),
        );
        let idx = s.build_vertex_index(3);
        assert_eq!(idx.values_at(NodeId(0)), &[id]);
        assert_eq!(idx.values_at(NodeId(1)), &[id]);
        assert_eq!(idx.values_at(NodeId(2)), &[] as &[TrajectoryId]);
        assert_eq!(idx.num_postings(), 2);
    }

    #[test]
    fn keyword_index_maps_tags_to_trajectories() {
        let mut s = TrajectoryStore::new();
        let a = s.push(Trajectory::new(vec![sample(0, 0.0)], kws(&[1, 2])).unwrap());
        let b = s.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[2])).unwrap());
        let idx = s.build_keyword_index(4);
        assert_eq!(idx.values_at(KeywordId(1)), &[a]);
        assert_eq!(idx.values_at(KeywordId(2)), &[a, b]);
        assert_eq!(idx.values_at(KeywordId(0)), &[] as &[TrajectoryId]);
    }

    #[test]
    fn keyword_blocks_hold_a_row_per_trajectory_as_wide_as_the_store() {
        let mut s = TrajectoryStore::new();
        let a = s.push(Trajectory::new(vec![sample(0, 0.0)], kws(&[1, 9])).unwrap());
        let b = s.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[])).unwrap());
        let blocks = s.build_keyword_blocks();
        assert_eq!((blocks.rows(), blocks.width()), (2, 10));
        let q = blocks.prepare(&kws(&[9, 40]));
        assert_eq!(blocks.counts(&q, a.index(), s.get(a).keywords()), (1, 2, 2));
        assert_eq!(blocks.counts(&q, b.index(), s.get(b).keywords()), (0, 2, 0));
    }

    #[test]
    fn timestamp_index_covers_all_samples() {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![sample(0, 10.0), sample(1, 20.0)], kws(&[])).unwrap());
        s.push(Trajectory::new(vec![sample(2, 15.0)], kws(&[])).unwrap());
        let idx = s.build_timestamp_index();
        assert_eq!(idx.len(), 3);
    }

    /// Trajectory `i` visits vertex `i + offset` once.
    fn numbered(n: u32, offset: u32) -> impl Iterator<Item = Trajectory> {
        (0..n).map(move |i| Trajectory::new(vec![sample(i + offset, 0.0)], kws(&[])).unwrap())
    }

    fn push_all(s: &mut TrajectoryStore, ts: impl Iterator<Item = Trajectory>) {
        for t in ts {
            s.push(t);
        }
    }

    fn node_of(s: &TrajectoryStore, id: u32) -> u32 {
        s.get(TrajectoryId(id)).samples()[0].node.0
    }

    #[test]
    fn store_ids_cross_block_boundaries() {
        let mut s = TrajectoryStore::with_capacity(300);
        for (i, t) in numbered(513, 0).enumerate() {
            assert_eq!(s.push(t), TrajectoryId(i as u32));
        }
        assert_eq!(s.len(), 513);
        for id in [0, 255, 256, 257, 511, 512] {
            assert_eq!(node_of(&s, id), id);
        }
    }

    #[test]
    #[should_panic]
    fn store_get_past_the_end_panics() {
        let mut s = TrajectoryStore::new();
        push_all(&mut s, numbered(3, 0));
        s.get(TrajectoryId(3));
    }

    #[test]
    fn a_clone_never_sees_later_pushes() {
        let mut writer = TrajectoryStore::new();
        push_all(&mut writer, numbered(300, 0));
        let snapshot = writer.clone();
        // the writer fills the shared partial block and opens a new one
        push_all(&mut writer, numbered(300, 1_000));
        let mut other = snapshot.clone();
        push_all(&mut other, numbered(5, 2_000));
        assert_eq!(snapshot.len(), 300);
        assert_eq!(writer.len(), 600);
        assert_eq!(other.len(), 305);
        for id in [0, 255, 256, 299] {
            for s in [&snapshot, &writer, &other] {
                assert_eq!(node_of(s, id), id, "shared trajectory {id} changed");
            }
        }
        assert_eq!(node_of(&writer, 300), 1_000);
        assert_eq!(node_of(&other, 300), 2_000);
        // full blocks are shared, not copied
        assert!(Arc::ptr_eq(&snapshot.blocks[0], &writer.blocks[0]));
        assert!(!Arc::ptr_eq(&snapshot.blocks[1], &writer.blocks[1]));
    }

    #[test]
    fn iteration_and_into_trajectories_keep_id_order() {
        let mut s = TrajectoryStore::new();
        push_all(&mut s, numbered(600, 0));
        let ids: Vec<u32> = s
            .iter()
            .map(|(id, t)| {
                assert_eq!(t.samples()[0].node.0, id.0);
                id.0
            })
            .collect();
        assert_eq!(ids, (0..600).collect::<Vec<_>>());
        assert_eq!(s.iter().len(), 600);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![sample(0, 1.0), sample(2, 9.0)], kws(&[3])).unwrap());
        push_all(&mut s, numbered(300, 0));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.starts_with('['), "a plain sequence of trajectories");
        let back: TrajectoryStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 301);
        assert!(s.iter().zip(back.iter()).all(|((_, a), (_, b))| a == b));
    }

    #[test]
    fn deserialization_validates_through_the_constructors() {
        let parse = |json: &str| serde_json::from_str::<Trajectory>(json);
        let ok = parse(r#"{"samples":[{"node":1,"time":5.0}],"keywords":[7,7,2]}"#).unwrap();
        assert_eq!(ok.keywords(), &kws(&[2, 7]), "keywords are canonicalised");
        for bad in [
            r#"{"samples":[],"keywords":[]}"#,
            r#"{"samples":[{"node":1,"time":-1.0}],"keywords":[]}"#,
            r#"{"samples":[{"node":1,"time":86400.5}],"keywords":[]}"#,
            r#"{"samples":[{"node":1,"time":9.0},{"node":2,"time":8.0}],"keywords":[]}"#,
            r#"{"keywords":[]}"#,
            r#"[]"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
        let store = r#"[{"samples":[{"node":1,"time":9.0},{"node":2,"time":8.0}],"keywords":[]}]"#;
        assert!(serde_json::from_str::<TrajectoryStore>(store).is_err());
    }
}
