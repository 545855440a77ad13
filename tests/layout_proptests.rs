//! Property tests for the two ingredients of every exact evaluation (the
//! keyword table `uots_index::KeywordBlocks` and the batched multi-source
//! expansion) and the versioned dataset codec:
//!
//! * bitset / galloping keyword intersections produce the **exact** counts
//!   and bit-identical similarities of the `KeywordSet` merge walk, for
//!   tables whose width the stored sets alone set, on both sides of the
//!   bitset threshold;
//! * one batched multi-source expansion settles, per source, exactly the
//!   vertices and distance bits of an independent Dijkstra, including on
//!   disconnected networks with parallel edges where sources exhaust at
//!   different times;
//! * the UOTSDS2 vocab-table section survives the same corruption model
//!   `persist_proptests.rs` applies to the base format (truncation,
//!   appended garbage).

use proptest::prelude::*;
use uots::datagen::persist;
use uots::network::dijkstra::shortest_path_tree;
use uots::network::expansion::MultiSourceExpansion;
use uots::prelude::*;
use uots::{KeywordId, NetworkBuilder};
use uots_index::{galloping_intersection_len, KeywordBlocks, MAX_BITSET_BITS};
use uots_text::{jaccard, KeywordSet};

fn kw_set(ids: &[u32]) -> KeywordSet {
    KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
}

/// Picks the id range the stored sets draw from, straddling
/// [`MAX_BITSET_BITS`]: band 0 is firmly bitset, band 1 brackets the
/// threshold from both sides, band 2 is firmly galloping.
fn pick_vocab(band: usize, offset: usize) -> usize {
    match band % 3 {
        0 => 1 + offset % 64,
        1 => MAX_BITSET_BITS - 80 + offset % 160,
        _ => 2000 + offset % 2000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both table modes reproduce the merge walk
    /// bit-for-bit — exact counts in, identical floats out. The width is
    /// taken from the stored sets alone; query ids above the widest stored
    /// id are counted in |A| without ever matching, and an empty row and
    /// an empty query count like any other set.
    #[test]
    fn dense_textual_matches_keywordset_oracle(
        band in 0usize..3,
        offset in any::<usize>(),
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..24), 1..20),
        raw_query in proptest::collection::vec(any::<u32>(), 0..24),
        foreign in 0u32..64,
    ) {
        let vocab = pick_vocab(band, offset);
        let mut sets: Vec<KeywordSet> = raw_sets
            .iter()
            .map(|ids| kw_set(&ids.iter().map(|&i| i % vocab as u32).collect::<Vec<_>>()))
            .collect();
        sets.push(KeywordSet::empty());
        let blocks = KeywordBlocks::from_sets(sets.iter());
        let widest = sets.iter().filter_map(|s| s.ids().last()).map(|k| k.index() + 1).max();
        prop_assert_eq!(blocks.width(), widest.unwrap_or(0));
        prop_assert_eq!(blocks.is_bitset(), blocks.width() <= MAX_BITSET_BITS);
        prop_assert_eq!(blocks.rows(), sets.len());
        // the query may carry ids past the widest stored one, and always
        // carries one
        let mut qids: Vec<u32> = raw_query.iter().map(|&i| i % (vocab as u32 + 64)).collect();
        qids.push(blocks.width() as u32 + foreign);
        for query in [kw_set(&qids), KeywordSet::empty()] {
            let q = blocks.prepare(&query);
            for (i, s) in sets.iter().enumerate() {
                let (inter, a_len, b_len) = blocks.counts(&q, i, s);
                prop_assert_eq!(inter, query.intersection_len(s), "row {}", i);
                prop_assert_eq!((a_len, b_len), (query.len(), s.len()), "row {}", i);
                prop_assert_eq!(
                    blocks.textual(&q, i, s).to_bits(),
                    jaccard(&query, s).to_bits(),
                    "row {}", i
                );
            }
        }
    }

    /// The bitset→galloping switchover at exactly [`MAX_BITSET_BITS`]
    /// table bits: widths 1023 and 1024 must select the bitset
    /// (1024 bits = 16 whole words), width 1025 the galloping fallback,
    /// and all three must reproduce the `KeywordSet` oracle exactly —
    /// counts and similarity bits — with the boundary bit (`width − 1`)
    /// forced live on both sides of every comparison.
    #[test]
    fn switchover_boundary_widths_pin_both_modes_to_the_oracle(
        delta in 0usize..3, // width = 1023 + delta
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..32), 1..12),
        raw_query in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        let width = MAX_BITSET_BITS - 1 + delta; // 1023 | 1024 | 1025
        let top = (width - 1) as u32;
        // every set carries the boundary bit plus ids folded into the
        // width, concentrated near both word boundaries (0..64 and the
        // last partial word) to stress the masking arithmetic
        let fold = |i: u32| match i % 3 {
            0 => i % 64,
            1 => top.saturating_sub(i % 64),
            _ => i % width as u32,
        };
        let sets: Vec<KeywordSet> = raw_sets
            .iter()
            .map(|ids| {
                let mut v: Vec<u32> = ids.iter().map(|&i| fold(i)).collect();
                v.push(top);
                kw_set(&v)
            })
            .collect();
        let mut qids: Vec<u32> = raw_query.iter().map(|&i| fold(i)).collect();
        qids.push(top);
        let query = kw_set(&qids);
        let blocks = KeywordBlocks::from_sets(sets.iter());
        prop_assert_eq!(blocks.width(), width);
        prop_assert_eq!(
            blocks.is_bitset(),
            width <= MAX_BITSET_BITS,
            "mode at width {} must flip exactly past {}", width, MAX_BITSET_BITS
        );
        let q = blocks.prepare(&query);
        for (i, s) in sets.iter().enumerate() {
            let (inter, a_len, b_len) = blocks.counts(&q, i, s);
            prop_assert_eq!(inter, query.intersection_len(s), "width {} row {}", width, i);
            prop_assert_eq!((a_len, b_len), (query.len(), s.len()));
            prop_assert!(inter >= 1, "boundary bit {} must intersect", top);
            prop_assert_eq!(
                blocks.textual(&q, i, s).to_bits(),
                jaccard(&query, s).to_bits(),
                "width {} row {}", width, i
            );
        }
    }

    /// The galloping kernel alone agrees with the sorted-merge oracle on
    /// arbitrary id slices (the fallback mode's only nontrivial part).
    #[test]
    fn galloping_intersection_matches_merge(
        a in proptest::collection::vec(0u32..5000, 0..40),
        b in proptest::collection::vec(0u32..5000, 0..40),
    ) {
        let (a, b) = (kw_set(&a), kw_set(&b));
        prop_assert_eq!(
            galloping_intersection_len(a.ids(), b.ids()),
            a.intersection_len(&b)
        );
    }

    /// One shared-frontier batch over `m` sources settles, per source,
    /// exactly the vertices and distance bits of an independent Dijkstra
    /// from that source — on random (typically disconnected) networks with
    /// parallel edges, with repeated sources allowed.
    #[test]
    fn multi_source_expansion_matches_dijkstra(
        n in 1usize..30,
        raw_edges in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 0.01f64..50.0), 0..40),
        picks in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(Point::new(i as f64, 0.0))).collect();
        for &(x, y, w) in &raw_edges {
            let (x, y) = (ids[x as usize % n], ids[y as usize % n]);
            if x != y {
                b.add_edge(x, y, Some(w)).unwrap();
            }
        }
        let net = b.build().unwrap();
        let sources: Vec<NodeId> = picks.iter().map(|&p| ids[p as usize % n]).collect();
        let batch = MultiSourceExpansion::run(&net, &sources);
        for (si, &s) in sources.iter().enumerate() {
            let tree = shortest_path_tree(&net, s);
            prop_assert_eq!(batch.reached_count(si), tree.reached_count(), "source {}", s);
            for &v in &ids {
                let (got, want) = (batch.distance(si, v), tree.distance(v));
                prop_assert_eq!(
                    got.map(f64::to_bits), want.map(f64::to_bits), "{} from {}", v, s
                );
            }
        }
    }

    /// The v2 payload (with its vocab-table section) obeys
    /// the same corruption contract as the base format — any truncation
    /// is rejected without panicking.
    #[test]
    fn v2_truncation_is_rejected_not_a_panic(
        trips in 1usize..12,
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let cfg = DatasetConfig::small(trips, seed % 1000);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
        prop_assert!(persist::load(&bytes).is_ok(), "sanity: untouched payload loads");
        let cut = cut % bytes.len();
        prop_assert!(
            persist::load(&bytes[..cut]).is_err(),
            "truncation to {} of {} bytes must not load", cut, bytes.len()
        );
    }

    /// ... and any appended suffix is rejected too (the vocab table is
    /// length-framed, so it cannot absorb trailing garbage).
    #[test]
    fn v2_appended_garbage_is_rejected(
        seed in any::<u64>(),
        suffix in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let cfg = DatasetConfig::small(5, seed % 100);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let mut bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
        bytes.extend_from_slice(&suffix);
        prop_assert!(persist::load(&bytes).is_err());
    }
}
