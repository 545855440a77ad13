//! Fault-injection wrappers for robustness testing.
//!
//! These adapters wrap any [`Algorithm`] to simulate the two failure modes
//! the batch executor must survive: a worker that **panics** mid-batch
//! ([`FaultyAlgorithm`]) and a query that is **too slow** for its deadline
//! but honors cooperative cancellation ([`SlowAlgorithm`]). The
//! [`corrupt`] submodule injects the three on-disk failure modes the WAL
//! recovery path must survive: torn writes, truncated segments, and bit
//! flips. They live in the library (not `#[cfg(test)]`) so integration
//! tests, benches, and downstream crates can exercise the same faults.

use crate::algorithms::Algorithm;
use crate::budget::{Gate, RunControl};
use crate::distcache::SearchContext;
use crate::{CoreError, Database, QueryResult, UotsQuery};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use uots_obs::Recorder;

/// On-disk corruption injectors mirroring how storage actually fails:
/// torn writes (a crash mid-`write(2)` leaves a prefix), truncation (lost
/// tail after metadata rollback), bit rot (flipped bits under a valid
/// length). All operate in place on a real file, so tests exercise the
/// same read path production recovery uses.
pub mod corrupt {
    use std::fs;
    use std::io;
    use std::path::Path;

    /// Truncates `path` to its first `keep` bytes — a torn write or lost
    /// tail. `keep` past the current length is a no-op (never extends).
    pub fn truncate_file(path: impl AsRef<Path>, keep: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        let len = f.metadata()?.len();
        if keep < len {
            f.set_len(keep)?;
        }
        Ok(())
    }

    /// Flips bit `bit` (0–7) of byte `byte_offset` in `path`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the offset is past the end of the file or `bit`
    /// is out of range.
    pub fn flip_bit(path: impl AsRef<Path>, byte_offset: u64, bit: u8) -> io::Result<()> {
        if bit > 7 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "bit > 7"));
        }
        let path = path.as_ref();
        let mut raw = fs::read(path)?;
        let i = usize::try_from(byte_offset)
            .ok()
            .filter(|&i| i < raw.len())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "offset past end of file")
            })?;
        raw[i] ^= 1 << bit;
        fs::write(path, &raw)
    }

    /// Appends `junk` to the end of `path` — trailing garbage after a
    /// valid payload.
    pub fn append_garbage(path: impl AsRef<Path>, junk: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = fs::OpenOptions::new().append(true).open(path)?;
        f.write_all(junk)
    }
}

/// Wraps an algorithm and panics on the `panic_on`-th call (0-based),
/// counted across threads; every other call delegates untouched. Use it to
/// verify that one poisoned query cannot take down a batch.
pub struct FaultyAlgorithm<A> {
    inner: A,
    panic_on: usize,
    calls: AtomicUsize,
    message: &'static str,
}

impl<A> FaultyAlgorithm<A> {
    /// Panics (with `message`) on call number `panic_on`, 0-based.
    pub fn new(inner: A, panic_on: usize, message: &'static str) -> Self {
        FaultyAlgorithm {
            inner,
            panic_on,
            calls: AtomicUsize::new(0),
            message,
        }
    }

    /// Total calls observed so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<A: Algorithm> Algorithm for FaultyAlgorithm<A> {
    fn run_ctx(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
        ctx: &SearchContext,
    ) -> Result<QueryResult, CoreError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if call == self.panic_on {
            panic!("{}", self.message);
        }
        self.inner.run_ctx(db, query, ctl, rec, ctx)
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

/// Wraps an algorithm and stalls for `delay` before delegating, polling the
/// gate while stalling: a deadline or cancellation arriving during the
/// stall yields the empty best-effort answer, exactly like a real query
/// that could not finish in time.
pub struct SlowAlgorithm<A> {
    inner: A,
    delay: Duration,
}

impl<A> SlowAlgorithm<A> {
    /// Stalls `delay` per query before running `inner`.
    pub fn new(inner: A, delay: Duration) -> Self {
        SlowAlgorithm { inner, delay }
    }
}

impl<A: Algorithm> Algorithm for SlowAlgorithm<A> {
    fn run_ctx(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
        ctx: &SearchContext,
    ) -> Result<QueryResult, CoreError> {
        let mut gate = Gate::new(&query.options().budget, ctl);
        let start = Instant::now();
        while start.elapsed() < self.delay {
            if gate.interrupted_now() {
                return Ok(QueryResult::interrupted_empty());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.inner.run_ctx(db, query, ctl, rec, ctx)
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BruteForce;
    use crate::budget::CancellationToken;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::KeywordSet;
    use uots_trajectory::{Sample, Trajectory, TrajectoryStore};

    fn tiny() -> (uots_network::RoadNetwork, TrajectoryStore) {
        let net = grid_city(&GridCityConfig::tiny(4)).unwrap();
        let mut s = TrajectoryStore::new();
        s.push(
            Trajectory::new(
                vec![Sample {
                    node: NodeId(0),
                    time: 100.0,
                }],
                KeywordSet::empty(),
            )
            .unwrap(),
        );
        (net, s)
    }

    #[test]
    fn faulty_panics_only_on_the_configured_call() {
        let (net, s) = tiny();
        let vidx = s.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &s, &vidx);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let algo = FaultyAlgorithm::new(BruteForce, 1, "injected");
        assert!(algo.run(&db, &q).is_ok()); // call 0
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = algo.run(&db, &q); // call 1: boom
        }));
        assert!(caught.is_err());
        assert!(algo.run(&db, &q).is_ok()); // call 2
        assert_eq!(algo.calls(), 3);
    }

    #[test]
    fn slow_algorithm_yields_best_effort_on_cancellation() {
        let (net, s) = tiny();
        let vidx = s.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &s, &vidx);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let algo = SlowAlgorithm::new(BruteForce, Duration::from_secs(3600));
        let token = CancellationToken::new();
        token.cancel();
        let r = algo
            .run_recorded(
                &db,
                &q,
                &RunControl::with_token(token),
                &mut Recorder::disabled(),
            )
            .unwrap();
        assert!(!r.completeness.is_exact());
        assert!(r.matches.is_empty());
    }

    #[test]
    fn corruption_injectors_do_what_they_say() {
        let dir = std::env::temp_dir().join(format!("uots_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();

        corrupt::truncate_file(&path, 10).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 10);
        corrupt::truncate_file(&path, 100).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 10, "never extends");

        corrupt::flip_bit(&path, 3, 7).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[3], 0x80);
        corrupt::flip_bit(&path, 3, 7).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[3], 0, "flip is an involution");
        assert!(corrupt::flip_bit(&path, 10, 0).is_err(), "offset == len");
        assert!(corrupt::flip_bit(&path, 0, 8).is_err());

        corrupt::append_garbage(&path, b"junk").unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw.len(), 14);
        assert_eq!(&raw[10..], b"junk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_algorithm_eventually_delegates() {
        let (net, s) = tiny();
        let vidx = s.build_vertex_index(net.num_nodes());
        let db = Database::new(&net, &s, &vidx);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let algo = SlowAlgorithm::new(BruteForce, Duration::from_millis(1));
        let r = algo.run(&db, &q).unwrap();
        assert!(r.completeness.is_exact());
        assert_eq!(r.matches.len(), 1);
    }
}
