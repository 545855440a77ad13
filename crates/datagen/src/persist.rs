//! Compact binary persistence for datasets.
//!
//! A built [`crate::Dataset`] takes noticeable time to generate
//! (one A* route per trip) and serializes to very large JSON; this module
//! provides a versioned little-endian binary format — roughly 10× smaller
//! and much faster to load — so experiment datasets can be built once and
//! reused across bench runs. Indexes are *not* stored: they are rebuilt on
//! load (cheaper than their serialized size).
//!
//! Format `UOTSDS2`:
//!
//! ```text
//! magic   8 B  "UOTSDS2\0"
//! name    u32 len + utf8
//! tags    u64 seed + TagModelConfig (6 fields)
//! network u32 |V|; |V| × (f64 x, f64 y); u32 |E|; |E| × (u32 a, u32 b, f64 w)
//! vocab   u32 len; len × (u16 len + utf8)
//! vtab    u16 version; u32 byte_len; payload (versioned vocab table)
//!           v1 payload: u32 count; count × u32 interned keyword id
//! store   u32 count; count × trajectory
//! ```
//!
//! A `trajectory` is the layout of [`uots_trajectory::codec`], which the
//! WAL shares. Every section is read through that module's bounded
//! [`Reader`], and a stored trajectory naming a vertex or keyword the
//! file does not hold is refused as it is decoded.
//!
//! The `vtab` section pins the interning of words to dense
//! [`KeywordId`](uots_text::KeywordId)s that the keyword table
//! ([`KeywordBlocks`](uots_index::KeywordBlocks)) is built over; the table
//! itself is never written, [`load`] rebuilds it. It is length-framed, so
//! readers skip payload versions they do not know.

use crate::{Dataset, DatasetConfig};
use std::path::Path;
use uots_index::GridIndex;
use uots_network::{NetworkBuilder, NodeId, Point, RoadNetwork};
use uots_storage::{crc32, StorageBackend};
use uots_text::Vocabulary;
use uots_trajectory::codec::{
    decode_trajectory, encode_trajectory, DecodeError, Reader, MIN_TRAJECTORY_BYTES,
};
use uots_trajectory::{LiveSet, TagModelConfig, TagSampler, TrajectoryStore};

const MAGIC: &[u8; 8] = b"UOTSDS2\0";
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
            PersistError::BadMagic => write!(f, "not a UOTSDS2 payload"),
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

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated(what) => PersistError::Truncated(what),
            DecodeError::Invalid(m) => PersistError::Invalid(m),
        }
    }
}

/// Serializes a dataset to the `UOTSDS2` binary format.
pub fn save(ds: &Dataset, tag_cfg: &TagModelConfig, tag_seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + ds.network.num_nodes() * 16 + ds.network.num_edges() * 16 + ds.store.len() * 64,
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(ds.name.len() as u32).to_le_bytes());
    out.extend_from_slice(ds.name.as_bytes());

    out.extend_from_slice(&tag_seed.to_le_bytes());
    out.extend_from_slice(&(tag_cfg.vocab_size as u32).to_le_bytes());
    out.extend_from_slice(&(tag_cfg.num_categories as u32).to_le_bytes());
    out.extend_from_slice(&(tag_cfg.keywords_per_category as u32).to_le_bytes());
    out.extend_from_slice(&tag_cfg.category_skew.to_le_bytes());
    out.extend_from_slice(&tag_cfg.keyword_skew.to_le_bytes());
    out.extend_from_slice(&tag_cfg.background_prob.to_le_bytes());

    write_network(&mut out, &ds.network);
    write_vocab(&mut out, &ds.vocab);
    write_vocab_table(&mut out, &ds.vocab);
    write_store(&mut out, &ds.store);
    out
}

fn write_network(out: &mut Vec<u8>, network: &RoadNetwork) {
    out.extend_from_slice(&(network.num_nodes() as u32).to_le_bytes());
    for p in network.points() {
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
    }
    out.extend_from_slice(&(network.num_edges() as u32).to_le_bytes());
    for e in network.edges() {
        out.extend_from_slice(&e.a.0.to_le_bytes());
        out.extend_from_slice(&e.b.0.to_le_bytes());
        out.extend_from_slice(&e.weight.to_le_bytes());
    }
}

fn write_vocab(out: &mut Vec<u8>, vocab: &Vocabulary) {
    out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
    for (_, word) in vocab.iter() {
        out.extend_from_slice(&(word.len() as u16).to_le_bytes());
        out.extend_from_slice(word.as_bytes());
    }
}

fn write_vocab_table(out: &mut Vec<u8>, vocab: &Vocabulary) {
    out.extend_from_slice(&VOCAB_TABLE_VERSION.to_le_bytes());
    let byte_len = 4 + 4 * vocab.len();
    out.extend_from_slice(&(byte_len as u32).to_le_bytes());
    out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
    for (id, _) in vocab.iter() {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
}

fn write_store(out: &mut Vec<u8>, store: &TrajectoryStore) {
    out.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for (_, t) in store.iter() {
        encode_trajectory(t, out);
    }
}

/// Deserializes a `UOTSDS2` dataset and rebuilds every index.
pub fn load(raw: &[u8]) -> Result<Dataset, PersistError> {
    let mut r = Reader::new(raw);
    if r.bytes(MAGIC.len(), "magic")? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let name = read_string(&mut r, "name")?;

    let tag_seed = r.u64("tag config")?;
    let tag_cfg = TagModelConfig {
        vocab_size: r.u32("tag config")? as usize,
        num_categories: r.u32("tag config")? as usize,
        keywords_per_category: r.u32("tag config")? as usize,
        category_skew: r.f64("tag config")?,
        keyword_skew: r.f64("tag config")?,
        background_prob: r.f64("tag config")?,
    };

    let network = read_network(&mut r)?;
    let vocab = read_vocab(&mut r)?;
    read_vocab_table(&mut r, &vocab)?;
    let store = read_store(&mut r, &network, &vocab)?;
    r.end("a complete payload")?;

    // the sampler is rebuilt from the stored config: it must be one a
    // sampler can be built from, over the stored vocabulary
    let (words, stored) = (tag_cfg.vocab_size, vocab.len());
    let checked = if words == stored {
        tag_cfg.check()
    } else {
        Err(format!("vocabulary of {words} words, {stored} stored"))
    };
    checked.map_err(|e| PersistError::Invalid(format!("tag config: {e}")))?;
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(tag_seed);
    let (tags, _) = TagSampler::synthetic(&tag_cfg, &mut rng);

    let vertex_index = store.build_vertex_index(network.num_nodes());
    let keyword_index = store.build_keyword_index(vocab.len());
    let keyword_blocks = store.build_keyword_blocks();
    let grid = GridIndex::build(network.points(), 8);
    Ok(Dataset {
        name,
        network,
        store,
        vocab,
        tags,
        vertex_index,
        keyword_index,
        keyword_blocks,
        grid,
    })
}

fn read_string(r: &mut Reader<'_>, what: &'static str) -> Result<String, PersistError> {
    let len = r.u32(what)? as usize;
    let raw = r.bytes(len, what)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| PersistError::Invalid(format!("{what}: bad utf8")))
}

fn read_network(r: &mut Reader<'_>) -> Result<RoadNetwork, PersistError> {
    let n = r.count(16, "node coordinates")?;
    let mut b = NetworkBuilder::with_capacity(n, n * 2);
    for _ in 0..n {
        let x = r.f64("node coordinates")?;
        let y = r.f64("node coordinates")?;
        // corrupted coordinate floats would poison every geometric
        // structure downstream; 1e7 km comfortably exceeds any planet
        if !x.is_finite() || !y.is_finite() || x.abs() > 1e7 || y.abs() > 1e7 {
            return Err(PersistError::Invalid(format!(
                "node coordinate ({x}, {y}) out of range"
            )));
        }
        b.add_node(Point::new(x, y));
    }
    let m = r.count(16, "edges")?;
    for _ in 0..m {
        let a = NodeId(r.u32("edges")?);
        let c = NodeId(r.u32("edges")?);
        let w = r.f64("edges")?;
        b.add_edge(a, c, Some(w))
            .map_err(|e| PersistError::Invalid(format!("edge: {e}")))?;
    }
    b.build()
        .map_err(|e| PersistError::Invalid(format!("network: {e}")))
}

fn read_vocab(r: &mut Reader<'_>) -> Result<Vocabulary, PersistError> {
    // each word is at least its u16 length
    let n = r.count(2, "vocab")?;
    let mut vocab = Vocabulary::new();
    for _ in 0..n {
        let len = r.u16("vocab word length")? as usize;
        let word = std::str::from_utf8(r.bytes(len, "vocab word")?)
            .map_err(|_| PersistError::Invalid("vocab: bad utf8".into()))?;
        vocab
            .intern(word)
            .ok_or_else(|| PersistError::Invalid("vocab: empty word".into()))?;
    }
    if vocab.len() != n {
        return Err(PersistError::Invalid(
            "vocab: duplicate words collapsed".into(),
        ));
    }
    Ok(vocab)
}

/// Reads the length-framed vocab-table section. A v1 table must be
/// exactly the one [`write_vocab_table`] writes for `vocab`, the interning
/// [`read_vocab`] derives; an unknown (newer) version is skipped over its
/// declared byte length, keeping old readers forward-compatible.
fn read_vocab_table(r: &mut Reader<'_>, vocab: &Vocabulary) -> Result<(), PersistError> {
    let version = r.u16("vocab table header")?;
    let byte_len = r.u32("vocab table header")? as usize;
    let payload = r.bytes(byte_len, "vocab table payload")?;
    if version != VOCAB_TABLE_VERSION {
        return Ok(()); // length-framed: skip an unknown version
    }
    let mut expect = Vec::new();
    write_vocab_table(&mut expect, vocab);
    if payload != &expect[6..] {
        return Err(PersistError::Invalid(
            "vocab table v1 does not record the vocabulary's interning order".into(),
        ));
    }
    Ok(())
}

/// Reads a store section, refusing any trajectory that names a vertex
/// outside `network` or a keyword outside `vocab`.
fn read_store(
    r: &mut Reader<'_>,
    network: &RoadNetwork,
    vocab: &Vocabulary,
) -> Result<TrajectoryStore, PersistError> {
    let count = r.count(MIN_TRAJECTORY_BYTES, "trajectories")?;
    let mut store = TrajectoryStore::with_capacity(count);
    for _ in 0..count {
        store.push(decode_trajectory(r, network.num_nodes(), vocab.len())?);
    }
    Ok(store)
}

/// Saves a dataset to `path` through `backend`, atomically: written to a
/// `.tmp` sibling, synced, renamed over the target, and the parent
/// directory is synced so the rename itself is durable. A crash or
/// storage fault mid-save never leaves a torn dataset under the final
/// name.
///
/// # Errors
///
/// I/O errors only; serialization itself is infallible.
pub fn save_file(
    backend: &dyn StorageBackend,
    ds: &Dataset,
    cfg: &DatasetConfig,
    path: &Path,
) -> Result<(), PersistError> {
    uots_storage::write_atomic(backend, path, &save(ds, &cfg.tags, cfg.tag_seed))?;
    Ok(())
}

/// Loads a dataset from `path`.
///
/// # Errors
///
/// See [`PersistError`].
pub fn load_file(path: impl AsRef<Path>) -> Result<Dataset, PersistError> {
    load(&std::fs::read(path)?)
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
/// network as in UOTSDS2
/// vocab   as in UOTSDS2
/// store   as in UOTSDS2 (the *master* store, retired slots included)
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
pub fn save_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + ck.network.num_nodes() * 16 + ck.network.num_edges() * 16 + ck.store.len() * 64,
    );
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&ck.epoch.to_le_bytes());
    out.extend_from_slice(&ck.lsn.to_le_bytes());
    write_network(&mut out, &ck.network);
    write_vocab(&mut out, &ck.vocab);
    write_store(&mut out, &ck.store);
    out.extend_from_slice(&(ck.live.len() as u32).to_le_bytes());
    for &w in ck.live.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
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
    let mut r = Reader::new(&body[CKPT_MAGIC.len()..]);
    let epoch = r.u64("checkpoint meta")?;
    let lsn = r.u64("checkpoint meta")?;
    let network = read_network(&mut r)?;
    let vocab = read_vocab(&mut r)?;
    let store = read_store(&mut r, &network, &vocab)?;
    let live_len = r.u32("live mask length")? as usize;
    if live_len != store.len() {
        return Err(PersistError::Invalid(format!(
            "live mask covers {live_len} ids but the store holds {}",
            store.len()
        )));
    }
    let words = r
        .bytes(live_len.div_ceil(64) * 8, "live mask words")?
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect();
    let live = LiveSet::from_words(live_len, words)
        .ok_or_else(|| PersistError::Invalid("live mask has ghost ids beyond its length".into()))?;
    r.end("a complete checkpoint")?;
    Ok(Checkpoint {
        network,
        vocab,
        store,
        live,
        epoch,
        lsn,
    })
}

/// Saves a checkpoint to `path` through `backend`, atomically: written to
/// a `.tmp` sibling, synced, renamed over the target, and the parent
/// directory is synced — the directory fsync is what makes the *rename*
/// durable, and its error is propagated like any other (a swallowed one
/// would report a checkpoint as saved that a power loss could still roll
/// back).
pub fn save_checkpoint_file(
    backend: &dyn StorageBackend,
    ck: &Checkpoint,
    path: &Path,
) -> Result<(), PersistError> {
    uots_storage::write_atomic(backend, path, &save_checkpoint(ck))?;
    Ok(())
}

/// Loads and validates a checkpoint from `path` through `backend`.
pub fn load_checkpoint_file(
    backend: &dyn StorageBackend,
    path: &Path,
) -> Result<Checkpoint, PersistError> {
    load_checkpoint(&backend.read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_storage::StdFs;

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
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed);
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
        save_file(&StdFs, &ds, &cfg, &path).unwrap();
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
        save_file(&StdFs, &ds, &cfg, &path).unwrap();
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
            save_file(&*fs, &ds, &cfg, &path),
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
        let mut bytes = save(&ds, &cfg.tags, cfg.tag_seed);
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
    fn vocab_table_section_is_versioned_and_validated() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        assert_eq!(&bytes[..8], MAGIC);
        // locate the vtab header: the table and the store section follow
        // it to the end of the payload
        let mut tail = Vec::new();
        write_vocab_table(&mut tail, &ds.vocab);
        write_store(&mut tail, &ds.store);
        let vtab_at = bytes.len() - tail.len();
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

    /// Regression: `load` handed the stored tag config to
    /// `TagSampler::synthetic` unchecked, so a hostile file panicked the
    /// loader (zero sizes, a negative skew, a NaN probability) or held it
    /// for over a minute (50M categories). Each is now refused before the
    /// sampler is rebuilt.
    #[test]
    fn hostile_tag_configs_are_refused_before_the_sampler_is_built() {
        let (ds, cfg) = dataset();
        let bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        // vocab_size, num_categories, keywords_per_category (u32), then
        // category_skew, keyword_skew, background_prob (f64)
        let at = MAGIC.len() + 4 + ds.name.len() + 8;
        let cases: [(&str, usize, Vec<u8>); 5] = [
            ("vocab_size 0", at, 0u32.to_le_bytes().to_vec()),
            ("num_categories 0", at + 4, 0u32.to_le_bytes().to_vec()),
            (
                "category_skew -1",
                at + 12,
                (-1.0f64).to_le_bytes().to_vec(),
            ),
            (
                "background_prob NaN",
                at + 28,
                f64::NAN.to_le_bytes().to_vec(),
            ),
            (
                "num_categories 50M",
                at + 4,
                50_000_000u32.to_le_bytes().to_vec(),
            ),
        ];
        for (what, offset, field) in cases {
            let mut hostile = bytes.clone();
            hostile[offset..offset + field.len()].copy_from_slice(&field);
            let started = std::time::Instant::now();
            let r = load(&hostile).err();
            assert!(matches!(r, Some(PersistError::Invalid(_))), "{what}: {r:?}");
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "{what}: refused only after {:?}",
                started.elapsed()
            );
        }
    }

    /// A store declaring `u32::MAX` trajectories, or a checkpoint whose
    /// live mask declares `u32::MAX` ids, is refused before anything is
    /// sized by the count.
    #[test]
    fn huge_declared_counts_are_refused_before_allocation() {
        let (ds, cfg) = dataset();
        let mut bytes = save(&ds, &cfg.tags, cfg.tag_seed);
        let mut store = Vec::new();
        write_store(&mut store, &ds.store);
        let at = bytes.len() - store.len();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load(&bytes),
            Err(PersistError::Truncated("trajectories"))
        ));

        let ck = checkpoint();
        let mut bytes = save_checkpoint(&ck);
        let at = bytes.len() - 4 - ck.live.words().len() * 8 - 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            load_checkpoint(&bytes),
            Err(PersistError::Invalid(m)) if m.contains("live mask covers 4294967295 ids")
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
        let bytes = save_checkpoint(&ck);
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
        save_checkpoint_file(&StdFs, &ck, &path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        let back = load_checkpoint_file(&StdFs, &path).unwrap();
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
        save_file(&StdFs, &ds, &cfg, &path).unwrap();
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
            save_file(&*fs, &ds, &cfg, &path),
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
            save_file(&*fs, &ds, &cfg, &path),
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
                save_checkpoint_file(&*fs, &ck, &path),
                Err(PersistError::Io(_))
            ),
            "directory-fsync failure decides rename durability; it must propagate"
        );
        // without faults the same backend path round-trips
        save_checkpoint_file(&StdFs, &ck, &path).unwrap();
        let back = load_checkpoint_file(&StdFs, &path).unwrap();
        assert_eq!(back.lsn, ck.lsn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
