//! The one binary layout of a trajectory, which the WAL, the dataset file
//! and the checkpoint share, and the bounded reader they decode with:
//!
//! ```text
//! trajectory = u32 n; n × (u32 node, f64 time); u32 k; k × u32 keyword
//! ```
//!
//! All integers are little-endian. [`Reader::count`] refuses a declared
//! count whose items cannot fit in the bytes left, so a hostile length can
//! fail a decode but never size an allocation. [`check_ids`] is the one
//! rule for the vertex and keyword ids a stored trajectory may name.

use crate::{Sample, Trajectory};
use uots_network::NodeId;
use uots_text::{KeywordId, KeywordSet};

/// Encoded bytes of one sample: u32 node + f64 time.
const SAMPLE_BYTES: usize = 12;
/// The fewest bytes an encoded trajectory occupies: both counts and the
/// one sample every trajectory has.
pub const MIN_TRAJECTORY_BYTES: usize = 4 + SAMPLE_BYTES + 4;

/// Why a payload did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The payload ended inside the named field, or declared more of them
    /// than the bytes left could hold.
    Truncated(&'static str),
    /// A decoded value failed validation.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated(what) => write!(f, "payload truncated in {what}"),
            DecodeError::Invalid(m) => write!(f, "invalid payload: {m}"),
        }
    }
}

/// A little-endian read cursor over a byte slice. Each read names its
/// field, and fails with [`DecodeError::Truncated`] of that name, taking
/// nothing, when the bytes are not there.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated(what));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self
            .bytes(N, what)?
            .try_into()
            .expect("bytes(N) has N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        self.array(what).map(u8::from_le_bytes)
    }

    /// A `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64`.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u32` count of items of at least `min_item_bytes` each, refused
    /// unless that many fit in the bytes left: a caller may size an
    /// allocation by it.
    pub fn count(
        &mut self,
        min_item_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_item_bytes) > self.buf.len() {
            return Err(DecodeError::Truncated(what));
        }
        Ok(n)
    }

    /// Succeeds only when every byte was read: a payload followed by
    /// anything (a torn rewrite, a concatenated file) is not what its
    /// writer produced.
    pub fn end(&self, what: &'static str) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(DecodeError::Invalid(format!(
                "{n} trailing bytes after {what}"
            ))),
        }
    }
}

/// The one range rule: `t` may name only a vertex below `num_nodes` and a
/// keyword below `vocab_len`, the sizes the vertex and keyword indexes are
/// built with (an id past them panics the next publish, and for a logged
/// insert every recovery). The error names the first id past its bound.
pub fn check_ids(t: &Trajectory, num_nodes: usize, vocab_len: usize) -> Result<(), String> {
    if let Some(v) = t.nodes().find(|v| v.index() >= num_nodes) {
        return Err(format!(
            "vertex {} outside the network ({num_nodes} vertices)",
            v.0
        ));
    }
    match t.keywords().iter().find(|k| k.index() >= vocab_len) {
        Some(k) => Err(format!(
            "keyword {} outside the vocabulary ({vocab_len} keywords)",
            k.0
        )),
        None => Ok(()),
    }
}

/// Appends `t` in the layout of the module docs.
pub fn encode_trajectory(t: &Trajectory, out: &mut Vec<u8>) {
    out.extend_from_slice(&(t.len() as u32).to_le_bytes());
    for s in t.samples() {
        out.extend_from_slice(&s.node.0.to_le_bytes());
        out.extend_from_slice(&s.time.to_le_bytes());
    }
    out.extend_from_slice(&(t.keywords().len() as u32).to_le_bytes());
    for k in t.keywords().iter() {
        out.extend_from_slice(&k.0.to_le_bytes());
    }
}

/// Reads one trajectory written by [`encode_trajectory`], validates it
/// ([`Trajectory::new`]) and applies [`check_ids`].
pub fn decode_trajectory(
    r: &mut Reader<'_>,
    num_nodes: usize,
    vocab_len: usize,
) -> Result<Trajectory, DecodeError> {
    let n = r.count(SAMPLE_BYTES, "samples")?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(r.u32("samples")?);
        let time = r.f64("samples")?;
        samples.push(Sample { node, time });
    }
    let k = r.count(4, "keywords")?;
    let mut keywords = Vec::with_capacity(k);
    for _ in 0..k {
        keywords.push(KeywordId(r.u32("keywords")?));
    }
    let t = Trajectory::new(samples, KeywordSet::from_ids(keywords))
        .map_err(|e| DecodeError::Invalid(format!("trajectory: {e}")))?;
    check_ids(&t, num_nodes, vocab_len).map_err(DecodeError::Invalid)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ANY: usize = usize::MAX;

    fn trip() -> Trajectory {
        let samples = [(3, 10.0), (7, 20.5), (2, 20.5)]
            .map(|(n, time)| Sample {
                node: NodeId(n),
                time,
            })
            .to_vec();
        Trajectory::new(samples, KeywordSet::from_ids([KeywordId(9), KeywordId(1)])).unwrap()
    }

    fn encoded(t: &Trajectory) -> Vec<u8> {
        let mut out = Vec::new();
        encode_trajectory(t, &mut out);
        out
    }

    #[test]
    fn round_trip_is_exact_and_reads_every_byte() {
        let t = trip();
        let bytes = encoded(&t);
        assert_eq!(bytes.len(), 4 + 3 * SAMPLE_BYTES + 4 + 2 * 4);
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_trajectory(&mut r, ANY, ANY).unwrap(), t);
        r.end("trajectory").unwrap();
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = encoded(&trip());
        for cut in 0..bytes.len() {
            let r = decode_trajectory(&mut Reader::new(&bytes[..cut]), ANY, ANY);
            assert!(matches!(r, Err(DecodeError::Truncated(_))), "cut at {cut}");
        }
    }

    /// A declared count of `u32::MAX` is refused by the count itself: were
    /// it sized into a `Vec` first, the reservation alone (64 GiB of
    /// samples, 16 GiB of keywords) would abort the process.
    #[test]
    fn a_huge_declared_count_is_refused_before_allocation() {
        let mut samples = u32::MAX.to_le_bytes().to_vec();
        samples.extend_from_slice(&[0; 64]);
        assert_eq!(
            decode_trajectory(&mut Reader::new(&samples), ANY, ANY),
            Err(DecodeError::Truncated("samples"))
        );

        let mut keywords = encoded(&trip());
        let at = keywords.len() - 2 * 4 - 4;
        keywords[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_trajectory(&mut Reader::new(&keywords), ANY, ANY),
            Err(DecodeError::Truncated("keywords"))
        );

        // the rule itself: exactly as many items as fit are allowed
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&bytes).count(4, "n"), Ok(3));
        assert_eq!(
            Reader::new(&bytes).count(5, "n"),
            Err(DecodeError::Truncated("n"))
        );
    }

    #[test]
    fn ids_outside_the_range_are_refused_and_named() {
        let t = trip();
        let bytes = encoded(&t);
        assert_eq!(
            decode_trajectory(&mut Reader::new(&bytes), 8, 10),
            Ok(t.clone())
        );
        assert_eq!(
            check_ids(&t, 7, 10).unwrap_err(),
            "vertex 7 outside the network (7 vertices)"
        );
        assert!(matches!(
            decode_trajectory(&mut Reader::new(&bytes), 7, 10),
            Err(DecodeError::Invalid(_))
        ));
        assert_eq!(
            check_ids(&t, 8, 9).unwrap_err(),
            "keyword 9 outside the vocabulary (9 keywords)"
        );
    }

    #[test]
    fn invalid_trajectories_and_trailing_bytes_are_refused() {
        // an empty trajectory and a decreasing timestamp
        let empty = [0u8; 8];
        assert!(matches!(
            decode_trajectory(&mut Reader::new(&empty), ANY, ANY),
            Err(DecodeError::Invalid(_))
        ));
        let mut bytes = encoded(&trip());
        bytes[4 + 4..4 + 12].copy_from_slice(&30.0f64.to_le_bytes());
        assert!(matches!(
            decode_trajectory(&mut Reader::new(&bytes), ANY, ANY),
            Err(DecodeError::Invalid(_))
        ));
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8("x").unwrap();
        assert!(matches!(r.end("x"), Err(DecodeError::Invalid(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the decoder, and a decoded
        /// trajectory re-encodes to exactly the bytes it was read from.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
            if let Ok(t) = decode_trajectory(&mut Reader::new(&bytes), ANY, ANY) {
                let again = encoded(&t);
                prop_assert_eq!(&bytes[..again.len()], &again[..]);
            }
        }

        /// Every read takes exactly its width or fails and takes nothing,
        /// whatever the bytes and the sequence of reads, and a count that
        /// is granted fits in what is left.
        #[test]
        fn reader_reads_are_exact_or_fail(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            ops in proptest::collection::vec(0u8..7, 0..24),
        ) {
            let mut r = Reader::new(&bytes);
            let mut taken = 0;
            for op in ops {
                let width = match op {
                    0 => r.u8("x").map(|_| 1),
                    1 => r.u16("x").map(|_| 2),
                    2 => r.u32("x").map(|_| 4),
                    3 => r.u64("x").map(|_| 8),
                    4 => r.f64("x").map(|_| 8),
                    5 => r.bytes(3, "x").map(<[u8]>::len),
                    _ => {
                        // a count spends its own u32 even when refused
                        let fits = bytes.len() - taken >= 4;
                        if let Ok(n) = r.count(2, "x") {
                            prop_assert!(r.clone().bytes(n * 2, "x").is_ok());
                        }
                        Ok(if fits { 4 } else { 0 })
                    }
                };
                taken += width.unwrap_or(0);
            }
            // exactly the untaken bytes are left
            prop_assert!(r.bytes(bytes.len() - taken, "rest").is_ok());
            prop_assert!(r.end("rest").is_ok());
        }
    }
}
