//! `InvertedIndex::merged` against a full `build` over the survivors.
//!
//! The serving epoch derives each published vertex and keyword index from
//! the previous one: take out the registrations of the ids retired since,
//! append those of the batch's live inserts. That is only sound if the
//! result is exactly the index a full build over the live ids would give,
//! for either key type — also when an insert's id falls below kept ones,
//! as a cluster's cut index sees after a restart.

use proptest::prelude::*;
use uots_index::{InvertedIndex, PostingKey};
use uots_network::NodeId;
use uots_text::KeywordId;

/// Every `(key, id)` registration of the ids `pick` accepts: trajectory
/// `id` registers under each key of `trips[id]` (modulo `num_keys`),
/// repeats included, as a path revisiting a vertex does.
fn registrations<K: PostingKey>(
    key: fn(u32) -> K,
    num_keys: u32,
    trips: &[Vec<u32>],
    pick: impl Fn(usize) -> bool,
) -> Vec<(K, u32)> {
    trips
        .iter()
        .enumerate()
        .filter(|&(id, _)| pick(id))
        .flat_map(|(id, keys)| keys.iter().map(move |&k| (key(k % num_keys), id as u32)))
        .collect()
}

/// One publish: `old` trips (some already retired before the base was
/// built), then a batch inserting `new` trips and retiring any old or new
/// id — including ids the batch itself inserted, and every id.
fn one_publish<K: PostingKey + PartialEq + std::fmt::Debug>(
    key: fn(u32) -> K,
    num_keys: u32,
    old: &[Vec<u32>],
    new: &[Vec<u32>],
    dead_before: &[bool],
    retired: &[bool],
    retire_all: bool,
) {
    let trips: Vec<Vec<u32>> = old.iter().chain(new).cloned().collect();
    let live_before = |id: usize| id < old.len() && !dead_before[id];
    let live_after = |id: usize| {
        let present = id >= old.len() || live_before(id);
        present && !retired[id] && !retire_all
    };
    let n = num_keys as usize;
    let base = InvertedIndex::build(n, registrations(key, num_keys, &trips, live_before));
    let merged = base.merged(
        registrations(key, num_keys, &trips, |id| {
            live_before(id) && !live_after(id)
        }),
        registrations(key, num_keys, &trips, |id| {
            id >= old.len() && live_after(id)
        }),
    );
    let built = InvertedIndex::build(n, registrations(key, num_keys, &trips, live_after));
    assert_eq!(merged, built);
}

/// A chain of publishes, each merged from the last, never drifts from a
/// full build.
fn chain<K: PostingKey + PartialEq + std::fmt::Debug>(
    key: fn(u32) -> K,
    num_keys: u32,
    batches: &[(Vec<Vec<u32>>, Vec<usize>)],
) {
    let n = num_keys as usize;
    let mut trips: Vec<Vec<u32>> = Vec::new();
    let mut live: Vec<bool> = Vec::new();
    let mut index = InvertedIndex::build(n, Vec::<(K, u32)>::new());
    for (inserts, retires) in batches {
        let (first_new, was_live) = (trips.len(), live.clone());
        for keys in inserts {
            trips.push(keys.clone());
            live.push(true);
        }
        for &r in retires {
            if let Some(slot) = live.get_mut(r) {
                *slot = false;
            }
        }
        index = index.merged(
            registrations(key, num_keys, &trips, |id| {
                was_live.get(id) == Some(&true) && !live[id]
            }),
            registrations(key, num_keys, &trips, |id| id >= first_new && live[id]),
        );
        let built = InvertedIndex::build(n, registrations(key, num_keys, &trips, |id| live[id]));
        assert_eq!(index, built);
    }
}

/// One publish whose inserts take ids between the kept ones, as a
/// cluster issues them into the gap a shard that refused inserts left:
/// old trip `i` has id `2i`, new trip `j` id `2j + 1`.
fn interleaved<K: PostingKey + PartialEq + std::fmt::Debug>(
    key: fn(u32) -> K,
    num_keys: u32,
    old: &[Vec<u32>],
    new: &[Vec<u32>],
    retired: &[bool],
) {
    let n = num_keys as usize;
    let regs = |trips: &[Vec<u32>], id: &dyn Fn(usize) -> u32, pick: &dyn Fn(usize) -> bool| {
        let mut out = Vec::new();
        for (i, keys) in trips.iter().enumerate().filter(|&(i, _)| pick(i)) {
            out.extend(keys.iter().map(|&k| (key(k % num_keys), id(i))));
        }
        out
    };
    let (even, odd) = (|i: usize| 2 * i as u32, |j: usize| 2 * j as u32 + 1);
    let base = InvertedIndex::build(n, regs(old, &even, &|_| true));
    let merged = base.merged(
        regs(old, &even, &|i| retired[i]),
        regs(new, &odd, &|_| true),
    );
    let mut survivors = regs(old, &even, &|i| !retired[i]);
    survivors.extend(regs(new, &odd, &|_| true));
    assert_eq!(merged, InvertedIndex::build(n, survivors));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn added_ids_below_kept_ones_are_merged_into_place(
        num_keys in 1u32..10,
        old in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 0..8),
        new in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 0..8),
        retired in proptest::collection::vec(any::<bool>(), 8),
    ) {
        interleaved(NodeId, num_keys, &old, &new, &retired);
        interleaved(KeywordId, num_keys, &old, &new, &retired);
    }

    #[test]
    fn merged_equals_build_over_the_survivors(
        num_keys in 1u32..10,
        old in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 0..8),
        new in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 0..6),
        dead_before in proptest::collection::vec(any::<bool>(), 8),
        retired in proptest::collection::vec(any::<bool>(), 14),
        retire_all in 0u32..6,
    ) {
        let args = (&old[..], &new[..], &dead_before[..], &retired[..], retire_all == 0);
        one_publish(NodeId, num_keys, args.0, args.1, args.2, args.3, args.4);
        one_publish(KeywordId, num_keys, args.0, args.1, args.2, args.3, args.4);
    }

    #[test]
    fn merges_compose(
        num_keys in 1u32..10,
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::collection::vec(0u32..10, 1..4), 0..4),
                proptest::collection::vec(0usize..16, 0..3),
            ),
            1..6,
        ),
    ) {
        chain(NodeId, num_keys, &batches);
        chain(KeywordId, num_keys, &batches);
    }
}
