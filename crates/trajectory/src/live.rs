//! Liveness mask over an append-only [`TrajectoryStore`].
//!
//! The store's ids are dense and stable — retiring a trajectory must not
//! renumber the survivors, or every index, cached result and tie-break
//! would shift. A [`LiveSet`] is the resolution: a bitmask tracking which
//! ids are currently *live*. Ingest appends to the store and marks the new
//! id live; retirement clears the bit and leaves the trajectory in place.
//! Query paths consult the mask (directly or through indexes built over
//! the live subset) so retired trips are invisible without ever moving.

use crate::{TrajectoryId, TrajectoryStore};
use serde::{Deserialize, Serialize};

/// A growable bitmask of live trajectory ids.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSet {
    bits: Vec<u64>,
    len: usize,
    live: usize,
}

impl LiveSet {
    /// A mask over `len` ids, all live.
    pub fn all_live(len: usize) -> Self {
        let mut bits = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last_mut() {
                // keep ghost bits beyond `len` clear, so masks built here
                // compare equal (derived `Eq`) to masks grown bit-by-bit
                // and the raw words round-trip through persistence
                *last = u64::MAX >> (64 - len % 64);
            }
        }
        LiveSet {
            bits,
            len,
            live: len,
        }
    }

    /// Number of ids covered (== the store length it masks).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers no ids at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live ids.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Whether `id` is covered and live. Ids beyond the mask are dead —
    /// a snapshot taken before an append must not see the new trajectory.
    #[inline]
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        let i = id.index();
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Extends the mask to cover ids up to `len`, newly covered ids live.
    /// Shrinking is not supported (ids are never reclaimed).
    pub fn grow_to(&mut self, len: usize) {
        assert!(len >= self.len, "LiveSet never shrinks");
        self.bits.resize(len.div_ceil(64), 0);
        for i in self.len..len {
            self.bits[i / 64] |= 1u64 << (i % 64);
        }
        self.live += len - self.len;
        self.len = len;
    }

    /// Marks `id` dead; returns whether it was live.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not covered by the mask.
    pub fn retire(&mut self, id: TrajectoryId) -> bool {
        let i = id.index();
        assert!(i < self.len, "retire of uncovered id {id}");
        let mask = 1u64 << (i % 64);
        let was = self.bits[i / 64] & mask != 0;
        if was {
            self.bits[i / 64] &= !mask;
            self.live -= 1;
        }
        was
    }

    /// Iterator over the live ids in ascending order.
    pub fn iter_live(&self) -> impl Iterator<Item = TrajectoryId> + '_ {
        (0..self.len)
            .filter(|&i| self.bits[i / 64] & (1u64 << (i % 64)) != 0)
            .map(|i| TrajectoryId(i as u32))
    }

    /// The raw bitmask words backing the mask (64 ids per word, LSB =
    /// lowest id). Exposed for binary persistence (checkpoints); pair with
    /// [`LiveSet::from_words`] to round-trip.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a mask over `len` ids from raw words, as produced by
    /// [`LiveSet::words`]. Returns `None` when the word count does not
    /// match `len` or a bit beyond `len` is set (corrupt persistence must
    /// be detected, not silently truncated). The live count is recomputed
    /// from the bits, never trusted from the caller.
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return None; // ghost ids beyond the mask
                }
            }
        }
        let live = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(LiveSet {
            bits: words,
            len,
            live,
        })
    }

    /// Copies the surviving trajectories of `store` into a fresh store with
    /// compacted (renumbered) ids, returning the store and the old → new id
    /// map. Compaction preserves id order, so relative tie-break order is
    /// unchanged — the property the ingest/rebuild differential oracle
    /// relies on.
    pub fn compact(&self, store: &TrajectoryStore) -> (TrajectoryStore, Vec<Option<TrajectoryId>>) {
        assert_eq!(self.len, store.len(), "mask does not cover the store");
        let mut out = TrajectoryStore::with_capacity(self.live);
        let mut map = vec![None; store.len()];
        for id in self.iter_live() {
            map[id.index()] = Some(out.push(store.get(id).clone()));
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sample, Trajectory};
    use uots_network::NodeId;
    use uots_text::KeywordSet;

    fn traj(v: u32) -> Trajectory {
        Trajectory::new(
            vec![Sample {
                node: NodeId(v),
                time: 0.0,
            }],
            KeywordSet::empty(),
        )
        .unwrap()
    }

    #[test]
    fn retire_revive_roundtrip() {
        let mut l = LiveSet::all_live(70);
        assert_eq!(l.num_live(), 70);
        assert!(l.is_live(TrajectoryId(69)));
        assert!(l.retire(TrajectoryId(69)));
        assert!(!l.retire(TrajectoryId(69)), "double retire is a no-op");
        assert!(!l.is_live(TrajectoryId(69)));
        assert_eq!(l.num_live(), 69);
    }

    #[test]
    fn grow_covers_new_ids_live() {
        let mut l = LiveSet::all_live(3);
        for i in 0..3 {
            l.retire(TrajectoryId(i));
        }
        l.grow_to(66);
        assert_eq!(l.num_live(), 63);
        assert!(!l.is_live(TrajectoryId(0)));
        assert!(l.is_live(TrajectoryId(3)));
        assert!(l.is_live(TrajectoryId(65)));
        assert!(!l.is_live(TrajectoryId(66)), "beyond the mask is dead");
    }

    #[test]
    fn iter_live_ascending() {
        let mut l = LiveSet::all_live(5);
        l.retire(TrajectoryId(1));
        l.retire(TrajectoryId(3));
        let ids: Vec<u32> = l.iter_live().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 2, 4]);
    }

    #[test]
    fn compact_preserves_order_and_maps_ids() {
        let mut store = TrajectoryStore::new();
        for v in 0..5 {
            store.push(traj(v));
        }
        let mut l = LiveSet::all_live(5);
        l.retire(TrajectoryId(0));
        l.retire(TrajectoryId(3));
        let (out, map) = l.compact(&store);
        assert_eq!(out.len(), 3);
        assert_eq!(map[0], None);
        assert_eq!(map[1], Some(TrajectoryId(0)));
        assert_eq!(map[2], Some(TrajectoryId(1)));
        assert_eq!(map[3], None);
        assert_eq!(map[4], Some(TrajectoryId(2)));
        // surviving content in the original relative order
        assert_eq!(out.get(TrajectoryId(1)).samples()[0].node, NodeId(2));
    }

    #[test]
    fn words_round_trip_and_reject_corruption() {
        let mut l = LiveSet::all_live(70);
        l.retire(TrajectoryId(7));
        l.retire(TrajectoryId(69));
        let back = LiveSet::from_words(70, l.words().to_vec()).unwrap();
        assert_eq!(l, back);
        assert_eq!(back.num_live(), 68);
        // wrong word count
        assert!(LiveSet::from_words(70, vec![0u64; 1]).is_none());
        assert!(LiveSet::from_words(70, vec![0u64; 3]).is_none());
        // ghost bit beyond len
        let mut words = l.words().to_vec();
        words[1] |= 1u64 << 63; // id 127 > 69
        assert!(LiveSet::from_words(70, words).is_none());
        // exact multiples of 64 have no tail to validate
        assert!(LiveSet::from_words(64, vec![u64::MAX]).is_some());
        assert!(LiveSet::from_words(0, vec![]).is_some());
    }

    #[test]
    fn construction_paths_agree_on_representation() {
        // all_live must not leave ghost bits in the tail word: a mask built
        // whole and one grown bit-by-bit are semantically equal and must be
        // representationally equal (derived Eq, persisted words)
        let mut grown = LiveSet::all_live(0);
        grown.grow_to(70);
        assert_eq!(LiveSet::all_live(70), grown);
        assert_eq!(LiveSet::all_live(70).words(), grown.words());
    }

    #[test]
    fn serde_round_trip() {
        let mut l = LiveSet::all_live(10);
        l.retire(TrajectoryId(7));
        let json = serde_json::to_string(&l).unwrap();
        let back: LiveSet = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
