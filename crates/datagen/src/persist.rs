//! Compact binary persistence for datasets.
//!
//! A built [`Dataset`](crate::Dataset) takes noticeable time to generate
//! (one A* route per trip) and serializes to very large JSON; this module
//! provides a versioned little-endian binary format — roughly 10× smaller
//! and much faster to load — so experiment datasets can be built once and
//! reused across bench runs. Indexes are *not* stored: they are rebuilt on
//! load (cheaper than their serialized size).
//!
//! Format `UOTSDS2` (current):
//!
//! ```text
//! magic   8 B  "UOTSDS2\0"
//! name    u32 len + utf8
//! tags    u64 seed + TagModelConfig (6 fields)
//! network u32 |V|; |V| × (f64 x, f64 y); u32 |E|; |E| × (u32 a, u32 b, f64 w)
//! vocab   u32 len; len × (u16 len + utf8)
//! vtab    u16 version; u32 byte_len; payload (versioned vocab table)
//!           v1 payload: u32 count; count × u32 interned keyword id
//! store   u32 count; per trajectory:
//!           u32 samples; samples × (u32 node, f64 time);
//!           u32 keywords; keywords × u32
//! ```
//!
//! The `vtab` section pins the word → dense-[`KeywordId`] interning the
//! layout tables (`uots_core::KeywordBlocks`) are built over. It is
//! length-framed, so readers skip payload versions they do not know.
//! Legacy `UOTSDS1` payloads (identical but with no `vtab` section) still
//! load: the interning is derived on load from vocabulary order, which is
//! exactly what the v1 table records.

use crate::{Dataset, DatasetConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use uots_index::GridIndex;
use uots_network::{NetworkBuilder, NodeId, Point, RoadNetwork};
use uots_storage::crc32;
use uots_text::{KeywordId, KeywordSet, Vocabulary};
use uots_trajectory::{LiveSet, Sample, TagModelConfig, TagSampler, Trajectory, TrajectoryStore};

const MAGIC: &[u8; 8] = b"UOTSDS2\0";
const MAGIC_V1: &[u8; 8] = b"UOTSDS1\0";
const CKPT_MAGIC: &[u8; 8] = b"UOTSCKP1";

/// Version of the vocab-table (`vtab`) section written by [`save`].
const VOCAB_TABLE_VERSION: u16 = 1;

/// Errors from [`load`] / [`load_file`].
#[derive(Debug)]
pub enum PersistError {
    /// The payload does not start with the format magic.
    BadMagic,
    /// The payload ended before a field was complete.
    Truncated(&'static str),
    /// A decoded value failed validation (counts, utf8, graph/trajectory
    /// invariants).
    Invalid(String),
    /// File I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a UOTSDS1/UOTSDS2 payload"),
            PersistError::Truncated(what) => write!(f, "payload truncated in {what}"),
            PersistError::Invalid(m) => write!(f, "invalid payload: {m}"),
            PersistError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn need(buf: &impl Buf, n: usize, what: &'static str) -> Result<(), PersistError> {
    if buf.remaining() < n {
        Err(PersistError::Truncated(what))
    } else {
        Ok(())
    }
}

/// Serializes a dataset to the current (`UOTSDS2`) binary format.
pub fn save(ds: &Dataset, tag_cfg: &TagModelConfig, tag_seed: u64) -> Bytes {
    save_impl(ds, tag_cfg, tag_seed, true)
}

/// Serializes a dataset to the legacy `UOTSDS1` format (no vocab-table
/// section). Kept for backward-compatibility tests: [`load`] must keep
/// accepting pre-vocab-table datasets indefinitely.
pub fn save_legacy_v1(ds: &Dataset, tag_cfg: &TagModelConfig, tag_seed: u64) -> Bytes {
    save_impl(ds, tag_cfg, tag_seed, false)
}

fn save_impl(ds: &Dataset, tag_cfg: &TagModelConfig, tag_seed: u64, v2: bool) -> Bytes {
    let mut out = BytesMut::with_capacity(
        64 + ds.network.num_nodes() * 16 + ds.network.num_edges() * 16 + ds.store.len() * 64,
    );
    write_preamble(&mut out, ds, tag_cfg, tag_seed, v2);
    write_store(&mut out, &ds.store);
    out.freeze()
}

/// Everything before the store section: magic, name, tag config,
/// network, vocabulary (and, for v2, the vocab table).
fn write_preamble(
    out: &mut BytesMut,
    ds: &Dataset,
    tag_cfg: &TagModelConfig,
    tag_seed: u64,
    v2: bool,
) {
    out.put_slice(if v2 { MAGIC } else { MAGIC_V1 });
    out.put_u32_le(ds.name.len() as u32);
    out.put_slice(ds.name.as_bytes());

    out.put_u64_le(tag_seed);
    out.put_u32_le(tag_cfg.vocab_size as u32);
    out.put_u32_le(tag_cfg.num_categories as u32);
    out.put_u32_le(tag_cfg.keywords_per_category as u32);
    out.put_f64_le(tag_cfg.category_skew);
    out.put_f64_le(tag_cfg.keyword_skew);
    out.put_f64_le(tag_cfg.background_prob);

    write_network(out, &ds.network);
    write_vocab(out, &ds.vocab);
    if v2 {
        write_vocab_table(out, &ds.vocab);
    }
}

fn write_network(out: &mut BytesMut, network: &RoadNetwork) {
    out.put_u32_le(network.num_nodes() as u32);
    for p in network.points() {
        out.put_f64_le(p.x);
        out.put_f64_le(p.y);
    }
    out.put_u32_le(network.num_edges() as u32);
    for e in network.edges() {
        out.put_u32_le(e.a.0);
        out.put_u32_le(e.b.0);
        out.put_f64_le(e.weight);
    }
}

fn write_vocab(out: &mut BytesMut, vocab: &Vocabulary) {
    out.put_u32_le(vocab.len() as u32);
    for (_, word) in vocab.iter() {
        out.put_u16_le(word.len() as u16);
        out.put_slice(word.as_bytes());
    }
}

fn write_vocab_table(out: &mut BytesMut, vocab: &Vocabulary) {
    out.put_u16_le(VOCAB_TABLE_VERSION);
    let byte_len = 4 + 4 * vocab.len();
    out.put_u32_le(byte_len as u32);
    out.put_u32_le(vocab.len() as u32);
    for (id, _) in vocab.iter() {
        out.put_u32_le(id.0);
    }
}

fn write_store(out: &mut BytesMut, store: &TrajectoryStore) {
    out.put_u32_le(store.len() as u32);
    for (_, t) in store.iter() {
        write_trajectory(out, t);
    }
}

fn write_trajectory(out: &mut BytesMut, t: &Trajectory) {
    out.put_u32_le(t.len() as u32);
    for s in t.samples() {
        out.put_u32_le(s.node.0);
        out.put_f64_le(s.time);
    }
    out.put_u32_le(t.keywords().len() as u32);
    for k in t.keywords().iter() {
        out.put_u32_le(k.0);
    }
}

/// Deserializes a dataset and rebuilds every index. Accepts the current
/// `UOTSDS2` format and the legacy `UOTSDS1` (no vocab-table section;
/// the interning is derived on load from vocabulary order).
pub fn load(mut buf: &[u8]) -> Result<Dataset, PersistError> {
    need(&buf, MAGIC.len(), "magic")?;
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    let has_vocab_table = match &magic {
        m if m == MAGIC => true,
        m if m == MAGIC_V1 => false,
        _ => return Err(PersistError::BadMagic),
    };

    let name = read_string(&mut buf, "name")?;

    need(&buf, 8 + 3 * 4 + 3 * 8, "tag config")?;
    let tag_seed = buf.get_u64_le();
    let tag_cfg = TagModelConfig {
        vocab_size: buf.get_u32_le() as usize,
        num_categories: buf.get_u32_le() as usize,
        keywords_per_category: buf.get_u32_le() as usize,
        category_skew: buf.get_f64_le(),
        keyword_skew: buf.get_f64_le(),
        background_prob: buf.get_f64_le(),
    };

    let network = read_network(&mut buf)?;
    let vocab = read_vocab(&mut buf)?;
    if has_vocab_table {
        read_vocab_table(&mut buf, &vocab)?;
    }
    let store = read_store(&mut buf, &network, &vocab)?;

    // rebuild the deterministic tag sampler; its internally derived
    // vocabulary must match the stored one
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(tag_seed);
    let (tags, regenerated_vocab) = TagSampler::synthetic(&tag_cfg, &mut rng);
    if regenerated_vocab.len() != vocab.len() {
        return Err(PersistError::Invalid(format!(
            "tag sampler vocabulary mismatch: stored {}, regenerated {}",
            vocab.len(),
            regenerated_vocab.len()
        )));
    }

    // checkpoints now gate recovery correctness, so a payload followed by
    // anything — torn rewrite, concatenated file, junk — is corruption,
    // not something to silently ignore
    if buf.remaining() > 0 {
        return Err(PersistError::Invalid(format!(
            "{} trailing bytes after a complete payload",
            buf.remaining()
        )));
    }

    let vertex_index = store.build_vertex_index(network.num_nodes());
    let keyword_index = store.build_keyword_index(vocab.len());
    let grid = GridIndex::build(network.points(), 8);
    Ok(Dataset {
        name,
        network,
        store,
        vocab,
        tags,
        vertex_index,
        keyword_index,
        grid,
    })
}

fn read_string(buf: &mut &[u8], what: &'static str) -> Result<String, PersistError> {
    need(buf, 4, what)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, what)?;
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| PersistError::Invalid(format!("{what}: bad utf8")))
}

fn read_network(buf: &mut &[u8]) -> Result<RoadNetwork, PersistError> {
    need(buf, 4, "node count")?;
    let n = buf.get_u32_le() as usize;
    need(buf, n * 16, "node coordinates")?;
    let mut b = NetworkBuilder::with_capacity(n, n * 2);
    for _ in 0..n {
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        // corrupted coordinate floats would poison every geometric
        // structure downstream; 1e7 km comfortably exceeds any planet
        if !x.is_finite() || !y.is_finite() || x.abs() > 1e7 || y.abs() > 1e7 {
            return Err(PersistError::Invalid(format!(
                "node coordinate ({x}, {y}) out of range"
            )));
        }
        b.add_node(Point::new(x, y));
    }
    need(buf, 4, "edge count")?;
    let m = buf.get_u32_le() as usize;
    need(buf, m * 16, "edges")?;
    for _ in 0..m {
        let a = NodeId(buf.get_u32_le());
        let c = NodeId(buf.get_u32_le());
        let w = buf.get_f64_le();
        b.add_edge(a, c, Some(w))
            .map_err(|e| PersistError::Invalid(format!("edge: {e}")))?;
    }
    b.build()
        .map_err(|e| PersistError::Invalid(format!("network: {e}")))
}

fn read_vocab(buf: &mut &[u8]) -> Result<Vocabulary, PersistError> {
    need(buf, 4, "vocab size")?;
    let n = buf.get_u32_le() as usize;
    let mut vocab = Vocabulary::new();
    for _ in 0..n {
        need(buf, 2, "vocab word length")?;
        let len = buf.get_u16_le() as usize;
        need(buf, len, "vocab word")?;
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        let word =
            String::from_utf8(raw).map_err(|_| PersistError::Invalid("vocab: bad utf8".into()))?;
        vocab
            .intern(&word)
            .ok_or_else(|| PersistError::Invalid("vocab: empty word".into()))?;
    }
    if vocab.len() != n {
        return Err(PersistError::Invalid(
            "vocab: duplicate words collapsed".into(),
        ));
    }
    Ok(vocab)
}

/// Reads and validates the length-framed vocab-table section. Known
/// versions must record exactly the interning [`read_vocab`] derives;
/// unknown (newer) versions are skipped over their declared byte length,
/// keeping old readers forward-compatible with extended tables.
fn read_vocab_table(buf: &mut &[u8], vocab: &Vocabulary) -> Result<(), PersistError> {
    need(buf, 6, "vocab table header")?;
    let version = buf.get_u16_le();
    let byte_len = buf.get_u32_le() as usize;
    need(buf, byte_len, "vocab table payload")?;
    if version != VOCAB_TABLE_VERSION {
        buf.advance(byte_len); // length-framed: skip an unknown version
        return Ok(());
    }
    if byte_len < 4 {
        return Err(PersistError::Invalid(format!(
            "vocab table v1 payload of {byte_len} bytes cannot hold its count"
        )));
    }
    let count = buf.get_u32_le() as usize;
    if byte_len != 4 + 4 * count {
        return Err(PersistError::Invalid(format!(
            "vocab table v1 declares {byte_len} bytes but holds {count} entries"
        )));
    }
    if count != vocab.len() {
        return Err(PersistError::Invalid(format!(
            "vocab table covers {count} words but the vocabulary holds {}",
            vocab.len()
        )));
    }
    for expect in 0..count {
        let id = buf.get_u32_le();
        if id as usize != expect {
            return Err(PersistError::Invalid(format!(
                "vocab table entry {expect} maps to interned id {id}; \
                 the table must match vocabulary interning order"
            )));
        }
    }
    Ok(())
}

fn read_store(
    buf: &mut &[u8],
    network: &RoadNetwork,
    vocab: &Vocabulary,
) -> Result<TrajectoryStore, PersistError> {
    need(buf, 4, "trajectory count")?;
    let count = buf.get_u32_le() as usize;
    // every serialized trajectory occupies ≥ 20 bytes (two counters + one
    // sample), so a count beyond that bound is corruption — reject before
    // reserving capacity for it
    if count > buf.remaining() / 20 {
        return Err(PersistError::Invalid(format!(
            "trajectory count {count} exceeds what the payload could hold"
        )));
    }
    let mut store = TrajectoryStore::with_capacity(count);
    for _ in 0..count {
        need(buf, 4, "sample count")?;
        let ns = buf.get_u32_le() as usize;
        need(buf, ns * 12, "samples")?;
        let mut samples = Vec::with_capacity(ns);
        for _ in 0..ns {
            let node = NodeId(buf.get_u32_le());
            let time = buf.get_f64_le();
            if !network.contains_node(node) {
                return Err(PersistError::Invalid(format!(
                    "trajectory references unknown vertex {node}"
                )));
            }
            samples.push(Sample { node, time });
        }
        need(buf, 4, "keyword count")?;
        let nk = buf.get_u32_le() as usize;
        need(buf, nk * 4, "keywords")?;
        let mut kws = Vec::with_capacity(nk);
        for _ in 0..nk {
            let k = KeywordId(buf.get_u32_le());
            if k.index() >= vocab.len() {
                return Err(PersistError::Invalid(format!(
                    "trajectory references unknown keyword {k}"
                )));
            }
            kws.push(k);
        }
        let t = Trajectory::new(samples, KeywordSet::from_ids(kws))
            .map_err(|e| PersistError::Invalid(format!("trajectory: {e}")))?;
        store.push(t);
    }
    Ok(store)
}

/// Saves a dataset to `path`, atomically: written to a `.tmp` sibling,
/// synced, renamed over the target, and the parent directory is synced so
/// the rename itself is durable. A crash or storage fault mid-save never
/// leaves a torn dataset under the final name.
///
/// # Errors
///
/// I/O errors only; serialization itself is infallible.
pub fn save_file(
    ds: &Dataset,
    cfg: &DatasetConfig,
    path: impl AsRef<std::path::Path>,
) -> Result<(), PersistError> {
    save_file_with(&uots_storage::StdFs, ds, cfg, path.as_ref())
}

/// [`save_file`] through an explicit storage backend.
pub fn save_file_with(
    backend: &dyn uots_storage::StorageBackend,
    ds: &Dataset,
    cfg: &DatasetConfig,
    path: &std::path::Path,
) -> Result<(), PersistError> {
    let bytes = save(ds, &cfg.tags, cfg.tag_seed);
    uots_storage::write_atomic(backend, path, &bytes)?;
    Ok(())
}

/// Loads a dataset from `path`.
///
/// # Errors
///
/// See [`PersistError`].
pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Dataset, PersistError> {
    let raw = std::fs::read(path)?;
    load(&raw)
}

/// A durable snapshot of the live-ingest state: the epoch master store
/// (retired slots included — ids are dense and never renumbered), the
/// liveness mask over it, and the WAL high-water mark it covers.
///
/// Format `UOTSCKP1` (little-endian, whole-payload CRC32 trailer):
///
/// ```text
/// magic   8 B  "UOTSCKP1"
/// epoch   u64  epoch counter at checkpoint time
/// lsn     u64  WAL high-water mark: last batch LSN applied to this state
/// network as in UOTSDS1
/// vocab   as in UOTSDS1
/// store   as in UOTSDS1 (the *master* store, retired slots included)
/// live    u32 len; ⌈len/64⌉ × u64 mask words
/// crc     u32  CRC32 (IEEE) of every preceding byte, magic included
/// ```
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Road network shared by every epoch (cache-survival invariant).
    pub network: RoadNetwork,
    /// Keyword vocabulary.
    pub vocab: Vocabulary,
    /// Master trajectory store, retired slots included.
    pub store: TrajectoryStore,
    /// Liveness mask over `store`.
    pub live: LiveSet,
    /// Epoch counter at checkpoint time.
    pub epoch: u64,
    /// Last WAL batch LSN whose effects are contained in this checkpoint;
    /// recovery replays strictly newer records on top.
    pub lsn: u64,
}

/// Serializes a checkpoint (see [`Checkpoint`] for the format).
pub fn save_checkpoint(ck: &Checkpoint) -> Bytes {
    let mut out = BytesMut::with_capacity(
        64 + ck.network.num_nodes() * 16 + ck.network.num_edges() * 16 + ck.store.len() * 64,
    );
    out.put_slice(CKPT_MAGIC);
    out.put_u64_le(ck.epoch);
    out.put_u64_le(ck.lsn);
    write_network(&mut out, &ck.network);
    write_vocab(&mut out, &ck.vocab);
    write_store(&mut out, &ck.store);
    out.put_u32_le(ck.live.len() as u32);
    for &w in ck.live.words() {
        out.put_u64_le(w);
    }
    let crc = crc32(out.as_slice());
    out.put_u32_le(crc);
    out.freeze()
}

/// Deserializes and fully validates a checkpoint. Any corruption — bad
/// magic, CRC mismatch, truncation, dangling references, trailing bytes —
/// is an error; recovery falls back to an older checkpoint or the base
/// dataset rather than trusting a damaged snapshot.
pub fn load_checkpoint(raw: &[u8]) -> Result<Checkpoint, PersistError> {
    if raw.len() < CKPT_MAGIC.len() + 4 {
        return Err(PersistError::Truncated("checkpoint header"));
    }
    if &raw[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let (body, trailer) = raw.split_at(raw.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let actual = crc32(body);
    if stored != actual {
        return Err(PersistError::Invalid(format!(
            "checkpoint crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let mut buf = &body[CKPT_MAGIC.len()..];
    need(&buf, 16, "checkpoint meta")?;
    let epoch = buf.get_u64_le();
    let lsn = buf.get_u64_le();
    let network = read_network(&mut buf)?;
    let vocab = read_vocab(&mut buf)?;
    let store = read_store(&mut buf, &network, &vocab)?;
    need(&buf, 4, "live mask length")?;
    let live_len = buf.get_u32_le() as usize;
    if live_len != store.len() {
        return Err(PersistError::Invalid(format!(
            "live mask covers {live_len} ids but the store holds {}",
            store.len()
        )));
    }
    let words_needed = live_len.div_ceil(64);
    need(&buf, words_needed * 8, "live mask words")?;
    let words: Vec<u64> = (0..words_needed).map(|_| buf.get_u64_le()).collect();
    let live = LiveSet::from_words(live_len, words)
        .ok_or_else(|| PersistError::Invalid("live mask has ghost ids beyond its length".into()))?;
    if buf.remaining() > 0 {
        return Err(PersistError::Invalid(format!(
            "{} trailing bytes after a complete checkpoint",
            buf.remaining()
        )));
    }
    Ok(Checkpoint {
        network,
        vocab,
        store,
        live,
        epoch,
        lsn,
    })
}

/// Saves a checkpoint to `path`, atomically: written to a `.tmp` sibling,
/// synced, renamed over the target, and the parent directory is synced —
/// the directory fsync is what makes the *rename* durable, and its error
/// is propagated like any other (a swallowed one would report a
/// checkpoint as saved that a power loss could still roll back).
pub fn save_checkpoint_file(
    ck: &Checkpoint,
    path: impl AsRef<std::path::Path>,
) -> Result<(), PersistError> {
    save_checkpoint_file_with(&uots_storage::StdFs, ck, path.as_ref())
}

/// [`save_checkpoint_file`] through an explicit storage backend.
pub fn save_checkpoint_file_with(
    backend: &dyn uots_storage::StorageBackend,
    ck: &Checkpoint,
    path: &std::path::Path,
) -> Result<(), PersistError> {
    let bytes = save_checkpoint(ck);
    uots_storage::write_atomic(backend, path, &bytes)?;
    Ok(())
}

/// Loads and validates a checkpoint from `path`.
pub fn load_checkpoint_file(path: impl AsRef<std::path::Path>) -> Result<Checkpoint, PersistError> {
    load_checkpoint_file_with(&uots_storage::StdFs, path.as_ref())
}

/// [`load_checkpoint_file`] through an explicit storage backend.
pub fn load_checkpoint_file_with(
    backend: &dyn uots_storage::StorageBackend,
    path: &std::path::Path,
) -> Result<Checkpoint, PersistError> {
    let raw = backend.read(path)?;
    load_checkpoint(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (Dataset, DatasetConfig) {
        let cfg = DatasetConfig::small(30, 77);
        (Dataset::build(&cfg).unwrap(), cfg)
    }

    #[test]
    fn round_trip_preserves_everything_queryable() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        let back = load(&bytes).unwrap();
        assert_eq!(ds.name, back.name);
        assert_eq!(ds.network, back.network);
        assert_eq!(ds.store.len(), back.store.len());
        for (a, b) in ds.store.iter().zip(back.store.iter()) {
            assert_eq!(a.1, b.1);
        }
        assert_eq!(ds.vocab.len(), back.vocab.len());
        for (id, w) in ds.vocab.iter() {
            assert_eq!(back.vocab.word(id), Some(w));
        }
        // rebuilt indexes answer identically
        for v in ds.network.node_ids() {
            assert_eq!(ds.vertex_index.values_at(v), back.vertex_index.values_at(v));
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let (ds, cfg) = dataset();
        let bin = save(&ds, &cfg.tags, cfg.tag_seed);
        let json = serde_json::to_vec(&ds.network).unwrap().len()
            + serde_json::to_vec(&ds.store).unwrap().len();
        assert!(
            bin.len() * 2 < json,
            "binary {} should be far below json {}",
            bin.len(),
            json
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(load(b"NOTADATASET"), Err(PersistError::BadMagic)));
        assert!(matches!(load(b""), Err(PersistError::Truncated(_))));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        // chop at a spread of prefixes: must never panic, always Err
        for cut in [8usize, 9, 20, 60, 200, bytes.len() / 2, bytes.len() - 1] {
            let r = load(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
        // the full payload still loads
        assert!(load(&bytes).is_ok());
    }

    #[test]
    fn corrupted_references_are_rejected() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed).to_vec();
        // corrupt a trajectory's node id to u32::MAX: find the store section
        // heuristically by flipping bytes near the end and expecting either
        // Invalid or Truncated (never a panic, never silent acceptance of an
        // out-of-range vertex)
        let mut corrupted = bytes.clone();
        let n = corrupted.len();
        for i in (n - 200..n - 4).step_by(12) {
            corrupted[i] = 0xff;
            corrupted[i + 1] = 0xff;
            corrupted[i + 2] = 0xff;
            corrupted[i + 3] = 0xff;
        }
        if let Ok(back) = load(&corrupted) {
            // extraordinarily unlikely, but if it parses it must be valid
            for (_, t) in back.store.iter() {
                for v in t.nodes() {
                    assert!(back.network.contains_node(v));
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let (ds, cfg) = dataset();
        let dir = std::env::temp_dir().join("uots_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.uotsds");
        save_file(&ds, &cfg, &path).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(ds.network, back.network);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_never_damages_the_target_on_write_fault() {
        use uots_storage::fault::{Fault, FaultFs, OpKind, ScriptedFault};
        let (ds, cfg) = dataset();
        let dir = std::env::temp_dir().join("uots_persist_save_fault_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.uotsds");
        save_file(&ds, &cfg, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let fs = FaultFs::scripted(
            81,
            vec![ScriptedFault {
                op: OpKind::Write,
                nth: 0,
                fault: Fault::ShortWrite,
            }],
        );
        assert!(matches!(
            save_file_with(&*fs, &ds, &cfg, &path),
            Err(PersistError::Io(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            pristine,
            "a torn save must only ever touch the .tmp sibling"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_file("/nonexistent/uots.ds"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (ds, cfg) = dataset();
        let mut bytes = save(&ds, &cfg.tags, cfg.tag_seed).to_vec();
        assert!(load(&bytes).is_ok());
        for suffix in [&b"\x00"[..], b"junk", &[0xff; 64]] {
            let mut extended = bytes.clone();
            extended.extend_from_slice(suffix);
            assert!(
                matches!(load(&extended), Err(PersistError::Invalid(_))),
                "{} appended bytes must be rejected",
                suffix.len()
            );
        }
        // a second full payload concatenated is also trailing garbage
        let dup = bytes.clone();
        bytes.extend_from_slice(&dup);
        assert!(matches!(load(&bytes), Err(PersistError::Invalid(_))));
    }

    #[test]
    fn legacy_v1_payload_still_loads_with_interning_on_load() {
        let (ds, cfg) = dataset();
        let v1 = save_legacy_v1(&ds, &cfg.tags, cfg.tag_seed);
        assert_eq!(&v1[..8], MAGIC_V1);
        let back = load(&v1).unwrap();
        assert_eq!(ds.vocab.len(), back.vocab.len());
        for (id, w) in ds.vocab.iter() {
            assert_eq!(back.vocab.word(id), Some(w), "interned ids must agree");
        }
        for (a, b) in ds.store.iter().zip(back.store.iter()) {
            assert_eq!(a.1, b.1);
        }
        // and the two formats decode to identical datasets
        let v2_back = load(&save(&ds, &cfg.tags, cfg.tag_seed)).unwrap();
        assert_eq!(v2_back.store.len(), back.store.len());
        for (a, b) in v2_back.store.iter().zip(back.store.iter()) {
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn vocab_table_section_is_versioned_and_validated() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed).to_vec();
        assert_eq!(&bytes[..8], MAGIC);
        // locate the vtab header: it follows the vocab section, whose end
        // we can find by re-serializing the prefix up to it
        let mut prefix = BytesMut::new();
        prefix.put_slice(MAGIC);
        prefix.put_u32_le(ds.name.len() as u32);
        prefix.put_slice(ds.name.as_bytes());
        prefix.put_u64_le(cfg.tag_seed);
        prefix.put_u32_le(cfg.tags.vocab_size as u32);
        prefix.put_u32_le(cfg.tags.num_categories as u32);
        prefix.put_u32_le(cfg.tags.keywords_per_category as u32);
        prefix.put_f64_le(cfg.tags.category_skew);
        prefix.put_f64_le(cfg.tags.keyword_skew);
        prefix.put_f64_le(cfg.tags.background_prob);
        write_network(&mut prefix, &ds.network);
        write_vocab(&mut prefix, &ds.vocab);
        let vtab_at = prefix.len();
        assert_eq!(
            u16::from_le_bytes([bytes[vtab_at], bytes[vtab_at + 1]]),
            VOCAB_TABLE_VERSION
        );
        // a permuted table entry is rejected (the interning it pins no
        // longer matches the loaded vocabulary)
        let mut permuted = bytes.clone();
        permuted[vtab_at + 10] ^= 0x01; // first entry's id
        assert!(matches!(load(&permuted), Err(PersistError::Invalid(_))));
        // an unknown (future) version is skipped over its byte length
        let mut future = bytes.clone();
        future[vtab_at] = 0xfe;
        future[vtab_at + 1] = 0xff;
        assert!(load(&future).is_ok(), "length framing must allow skipping");
        // truncation inside the table is detected
        assert!(matches!(
            load(&bytes[..vtab_at + 3]),
            Err(PersistError::Truncated(_))
        ));
    }

    fn checkpoint() -> Checkpoint {
        let (ds, _) = dataset();
        let mut live = LiveSet::all_live(ds.store.len());
        live.retire(uots_trajectory::TrajectoryId(1));
        Checkpoint {
            network: ds.network,
            vocab: ds.vocab,
            store: ds.store,
            live,
            epoch: 7,
            lsn: 42,
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let ck = checkpoint();
        let bytes = save_checkpoint(&ck);
        let back = load_checkpoint(&bytes).unwrap();
        assert_eq!(back.epoch, 7);
        assert_eq!(back.lsn, 42);
        assert_eq!(ck.network, back.network);
        assert_eq!(ck.live, back.live);
        assert_eq!(ck.store.len(), back.store.len());
        for (a, b) in ck.store.iter().zip(back.store.iter()) {
            assert_eq!(a.1, b.1);
        }
        assert_eq!(ck.vocab.len(), back.vocab.len());
    }

    #[test]
    fn checkpoint_detects_every_corruption_mode() {
        let ck = checkpoint();
        let bytes = save_checkpoint(&ck).to_vec();
        // truncation at a spread of prefixes
        for cut in [0usize, 4, 11, 24, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // any single bit flip breaks the CRC
        for pos in [8usize, 20, bytes.len() / 3, bytes.len() - 5] {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x10;
            assert!(load_checkpoint(&mutated).is_err(), "flip at {pos}");
        }
        // trailing garbage lands after the CRC trailer, so the CRC no
        // longer covers the tail: still rejected
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"xx");
        assert!(load_checkpoint(&extended).is_err());
        // a dataset payload is not a checkpoint
        let (ds, cfg) = dataset();
        let ds_bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        assert!(matches!(
            load_checkpoint(&ds_bytes),
            Err(PersistError::BadMagic)
        ));
        // the pristine payload still loads
        assert!(load_checkpoint(&bytes).is_ok());
    }

    #[test]
    fn checkpoint_file_round_trip_is_atomic() {
        let ck = checkpoint();
        let dir = std::env::temp_dir().join("uots_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.uotsck");
        save_checkpoint_file(&ck, &path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        let back = load_checkpoint_file(&path).unwrap();
        assert_eq!(back.lsn, ck.lsn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dataset_save_is_atomic_under_write_faults() {
        use uots_storage::fault::{Fault, FaultFs, OpKind, ScriptedFault};
        let (ds, cfg) = dataset();
        let dir = std::env::temp_dir().join("uots_persist_fault_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.uots");
        // a good save first, so the fault case has something to protect
        save_file(&ds, &cfg, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // now a save whose tmp-file write tears mid-way: the target file
        // must be untouched (the torn bytes only ever exist in the .tmp)
        let fs = FaultFs::scripted(
            77,
            vec![ScriptedFault {
                op: OpKind::Write,
                nth: 0,
                fault: Fault::ShortWrite,
            }],
        );
        assert!(matches!(
            save_file_with(&*fs, &ds, &cfg, &path),
            Err(PersistError::Io(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            pristine,
            "a failed save must never damage the existing dataset"
        );
        // and a save whose directory fsync fails must report the error:
        // the rename's durability is unknown, pretending success would be
        // the swallowed-fsync bug
        let fs = FaultFs::scripted(
            78,
            vec![ScriptedFault {
                op: OpKind::SyncDir,
                nth: 0,
                fault: Fault::Permanent,
            }],
        );
        assert!(matches!(
            save_file_with(&*fs, &ds, &cfg, &path),
            Err(PersistError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_save_propagates_dir_fsync_failure() {
        use uots_storage::fault::{Fault, FaultFs, OpKind, ScriptedFault};
        let ck = checkpoint();
        let dir = std::env::temp_dir().join("uots_ckpt_fault_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.uotsck");
        let fs = FaultFs::scripted(
            79,
            vec![ScriptedFault {
                op: OpKind::SyncDir,
                nth: 0,
                fault: Fault::Permanent,
            }],
        );
        assert!(
            matches!(
                save_checkpoint_file_with(&*fs, &ck, &path),
                Err(PersistError::Io(_))
            ),
            "directory-fsync failure decides rename durability; it must propagate"
        );
        // without faults the same backend path round-trips
        save_checkpoint_file_with(&uots_storage::StdFs, &ck, &path).unwrap();
        let back = load_checkpoint_file_with(&uots_storage::StdFs, &path).unwrap();
        assert_eq!(back.lsn, ck.lsn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
