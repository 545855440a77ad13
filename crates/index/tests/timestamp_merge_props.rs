//! `TimestampIndex::merged` against a full `build`, bit for bit.
//!
//! The serving epoch derives each published timestamp index from the
//! previous one: drop the entries of retired ids, merge in the batch's
//! samples. That is only sound if the result is exactly the index a full
//! build over the live ids would give — same times (to the bit, so `-0.0`
//! and `0.0` stay apart) and same values in the same order at every tie.

use proptest::prelude::*;
use uots_index::TimestampIndex;

/// A palette dense in ties: both zeros (which `total_cmp` orders apart),
/// a repeated minute, and both ends of the day.
const TIMES: [f64; 6] = [-0.0, 0.0, 60.0, 60.0, 3_600.0, 86_400.0];

/// Every sample of the `live` ids in id order, as the epoch registers
/// them: trajectory `id` has samples `TIMES[s]` for `s` in `trips[id]`.
fn registrations<'a>(
    trips: &'a [Vec<usize>],
    live: &'a [bool],
) -> impl Iterator<Item = (f64, u32)> + 'a {
    trips
        .iter()
        .enumerate()
        .filter(|&(id, _)| live[id])
        .flat_map(|(id, slots)| slots.iter().map(move |&s| (TIMES[s], id as u32)))
}

fn assert_bit_identical(merged: &TimestampIndex<u32>, built: &TimestampIndex<u32>) {
    let bits = |idx: &TimestampIndex<u32>| -> Vec<u64> {
        idx.times().iter().map(|t| t.to_bits()).collect()
    };
    assert_eq!(bits(merged), bits(built));
    assert_eq!(merged.values(), built.values());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One publish: `old` trips (some already retired before the base was
    /// built), then a batch inserting `new` trips and retiring any old or
    /// new id — including ids the batch itself inserted, and every id.
    #[test]
    fn merged_equals_a_full_build(
        old in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 0..8),
        new in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 0..6),
        dead_before in proptest::collection::vec(any::<bool>(), 8),
        retired in proptest::collection::vec(any::<bool>(), 14),
        retire_all in 0u32..6,
    ) {
        let trips: Vec<Vec<usize>> = old.iter().chain(&new).cloned().collect();
        let live_before: Vec<bool> = (0..trips.len())
            .map(|id| id < old.len() && !dead_before[id])
            .collect();
        let live_after: Vec<bool> = (0..trips.len())
            .map(|id| {
                let present = id >= old.len() || live_before[id];
                present && !retired[id] && retire_all != 0
            })
            .collect();
        let base = TimestampIndex::build(registrations(&trips, &live_before));
        let fresh: Vec<bool> = (0..trips.len())
            .map(|id| id >= old.len() && live_after[id])
            .collect();
        let merged = base.merged(|id| live_after[id as usize], registrations(&trips, &fresh));
        let built = TimestampIndex::build(registrations(&trips, &live_after));
        assert_bit_identical(&merged, &built);
    }

    /// A chain of publishes, each merged from the last, never drifts from
    /// a full build.
    #[test]
    fn merges_compose(
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::collection::vec(0usize..6, 1..3), 0..4),
                proptest::collection::vec(0usize..16, 0..3),
            ),
            1..6,
        ),
    ) {
        let mut trips: Vec<Vec<usize>> = Vec::new();
        let mut live: Vec<bool> = Vec::new();
        let mut index = TimestampIndex::build(std::iter::empty());
        for (inserts, retires) in batches {
            let first_new = trips.len();
            for slots in inserts {
                trips.push(slots);
                live.push(true);
            }
            for r in retires {
                if let Some(slot) = live.get_mut(r) {
                    *slot = false;
                }
            }
            let fresh: Vec<bool> = (0..trips.len()).map(|id| id >= first_new && live[id]).collect();
            index = index.merged(|id| live[id as usize], registrations(&trips, &fresh));
            assert_bit_identical(&index, &TimestampIndex::build(registrations(&trips, &live)));
        }
    }
}

#[test]
#[should_panic(expected = "outside")]
fn merged_rejects_an_out_of_day_sample() {
    let base = TimestampIndex::build([(10.0, 0u32)]);
    base.merged(|_| true, [(90_000.0, 1u32)]);
}
