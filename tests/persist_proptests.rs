//! Property tests for the binary dataset persistence: arbitrary datasets
//! must round-trip exactly, and arbitrary byte mutations must never panic
//! the decoder.

use proptest::prelude::*;
use uots::datagen::persist;
use uots::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn arbitrary_datasets_round_trip(
        trips in 1usize..40,
        seed in any::<u64>(),
    ) {
        let cfg = DatasetConfig::small(trips, seed % 1000);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
        let back = persist::load(&bytes).expect("round trip");
        prop_assert_eq!(&ds.network, &back.network);
        prop_assert_eq!(ds.store.len(), back.store.len());
        for (a, b) in ds.store.iter().zip(back.store.iter()) {
            prop_assert_eq!(a.1, b.1);
        }
        // a query over the reloaded dataset matches the original
        let spec = &workload::generate(&ds, &workload::WorkloadConfig::default())[0];
        let q = UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap();
        let db_a = uots::db(&ds);
        let db_b = uots::db(&back);
        let ra = Expansion::default().run(&db_a, &q).unwrap();
        let rb = Expansion::default().run(&db_b, &q).unwrap();
        prop_assert_eq!(ra.ids(), rb.ids());
    }

    #[test]
    fn random_byte_flips_never_panic(
        seed in any::<u64>(),
        flip_at in proptest::collection::vec(0usize..10_000, 1..8),
        flip_to in any::<u8>(),
    ) {
        let cfg = DatasetConfig::small(5, seed % 100);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let mut bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
        for &pos in &flip_at {
            if pos < bytes.len() {
                bytes[pos] = flip_to;
            }
        }
        // must return Ok or Err — never panic, never hang
        let _ = persist::load(&bytes);
    }

    #[test]
    fn random_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = persist::load(&garbage);
    }

    /// A valid payload with *anything* appended must be rejected — trailing
    /// garbage means the file is not what the writer produced, and silently
    /// ignoring it would let a concatenation or torn copy masquerade as
    /// valid (and never panic while being rejected).
    #[test]
    fn appended_suffix_is_rejected_not_ignored(
        seed in any::<u64>(),
        suffix in proptest::collection::vec(any::<u8>(), 1..300),
    ) {
        let cfg = DatasetConfig::small(4, seed % 100);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let mut bytes = persist::save(&ds, &cfg.tags, cfg.tag_seed);
        prop_assert!(persist::load(&bytes).is_ok(), "sanity: untouched payload loads");
        bytes.extend_from_slice(&suffix);
        prop_assert!(
            persist::load(&bytes).is_err(),
            "a payload with {} trailing bytes must not load",
            suffix.len()
        );
    }

    /// The same holds for checkpoints — though there the CRC trailer means
    /// an appended suffix is indistinguishable from any other corruption.
    #[test]
    fn checkpoint_suffix_is_rejected(
        seed in any::<u64>(),
        suffix in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let cfg = DatasetConfig::small(4, seed % 100);
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let ck = persist::Checkpoint {
            network: ds.network.clone(),
            vocab: ds.vocab.clone(),
            store: ds.store.clone(),
            live: uots::LiveSet::all_live(ds.store.len()),
            epoch: 1,
            lsn: 7,
        };
        let mut bytes = persist::save_checkpoint(&ck);
        prop_assert!(persist::load_checkpoint(&bytes).is_ok(), "sanity: untouched checkpoint loads");
        bytes.extend_from_slice(&suffix);
        prop_assert!(persist::load_checkpoint(&bytes).is_err());
    }
}
