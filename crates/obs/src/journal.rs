//! Bounded, thread-safe journal of structured operational events.
//!
//! Metrics answer *how much*; the journal answers *what happened when*.
//! Every durability-relevant state change — a WAL segment sealed after a
//! failed fsync, a retry budget exhausted, an ingest degrading to
//! read-only, a checkpoint landing, a file moved to quarantine — lands
//! here as one [`JournalEvent`]: timestamp, severity, component, name,
//! and free-form key/value fields.
//!
//! The journal is a fixed-capacity ring: recording is O(1), never blocks
//! on I/O, and when the ring wraps the oldest events are dropped and
//! *counted* ([`EventJournal::dropped`]), so an operator reading the tail
//! always knows whether history is missing. An [`EventJournal`] handle is
//! an `Arc` around the ring — clone it freely into every subsystem; all
//! clones feed the same ring.
//!
//! Export is JSON lines ([`EventJournal::export_jsonl`]): one event per
//! line, so `tail`/`grep`/`jq` work on a live capture, and the
//! `/journal` endpoint of [`serve`](crate::serve) can stream the most
//! recent `K` events without holding the ring locked during the write.

use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// How loud a [`JournalEvent`] is. Severities are advisory — the journal
/// never filters by them — but they let an operator `grep '"error"'` a
/// capture during an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine operational fact (rotation, publish, checkpoint).
    Info,
    /// Something degraded or was repaired, but service continues.
    Warn,
    /// A failure with operator-visible consequences.
    Error,
}

impl Severity {
    /// Lowercase wire name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire name back; inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn serialize(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for Severity {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Str(s) => Severity::parse(s).ok_or_else(|| DeError::unknown_variant(s)),
            _ => Err(DeError::unknown_variant("severity must be a string")),
        }
    }
}

/// One structured operational event.
///
/// Serializes to a flat JSON object with the fields inlined as a nested
/// object, e.g.:
///
/// ```json
/// {"seq":17,"unix_ms":1754700000123,"severity":"warn","component":"wal",
///  "name":"segment_sealed","fields":{"segment":"wal-00000000000000000004",
///  "truncate_at":"4096"}}
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number, assigned at record time. Gaps in a
    /// journal capture mean the ring wrapped in between.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Event severity.
    pub severity: Severity,
    /// Emitting subsystem (`"wal"`, `"durable"`, `"epoch"`,
    /// `"distcache"`, `"scrub"`, ...).
    pub component: String,
    /// Event name within the component (`"fsync_failure"`,
    /// `"segment_sealed"`, `"degraded"`, ...).
    pub name: String,
    /// Free-form key/value detail, in insertion order.
    pub fields: Vec<(String, String)>,
}

impl Serialize for JournalEvent {
    fn serialize(&self) -> Content {
        Content::Map(vec![
            ("seq".to_string(), Content::U64(self.seq)),
            ("unix_ms".to_string(), Content::U64(self.unix_ms)),
            ("severity".to_string(), self.severity.serialize()),
            (
                "component".to_string(),
                Content::Str(self.component.clone()),
            ),
            ("name".to_string(), Content::Str(self.name.clone())),
            (
                "fields".to_string(),
                Content::Map(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for JournalEvent {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let str_of = |c: &Content, what: &str| -> Result<String, DeError> {
            match c {
                Content::Str(s) => Ok(s.clone()),
                _ => Err(DeError::unknown_variant(what)),
            }
        };
        let u64_of = |c: &Content, what: &str| -> Result<u64, DeError> {
            match c {
                Content::U64(v) => Ok(*v),
                Content::I64(v) if *v >= 0 => Ok(*v as u64),
                _ => Err(DeError::unknown_variant(what)),
            }
        };
        let get = |key: &str| -> Result<&Content, DeError> {
            content
                .get(key)
                .ok_or_else(|| DeError::unknown_variant(key))
        };
        let mut fields = Vec::new();
        if let Some(map) = get("fields")?.as_map() {
            for (k, v) in map {
                fields.push((k.clone(), str_of(v, "field value")?));
            }
        }
        Ok(JournalEvent {
            seq: u64_of(get("seq")?, "seq")?,
            unix_ms: u64_of(get("unix_ms")?, "unix_ms")?,
            severity: Severity::deserialize(get("severity")?)?,
            component: str_of(get("component")?, "component")?,
            name: str_of(get("name")?, "name")?,
            fields,
        })
    }
}

struct Inner {
    ring: Mutex<VecDeque<JournalEvent>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

/// A bounded, thread-safe ring of [`JournalEvent`]s. Cloning is cheap
/// (`Arc`); all clones share one ring. See the [module docs](self).
#[derive(Clone)]
pub struct EventJournal {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Default ring capacity: generous enough to hold the full causal chain
/// of any single incident, small enough to be memory-irrelevant.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// Creates a journal holding at most `capacity` events (minimum 1).
    /// The ring grows with what is recorded, so a journal nothing reads —
    /// the detached default of every write-path constructor — costs nothing
    /// up front.
    pub fn new(capacity: usize) -> EventJournal {
        let capacity = capacity.max(1);
        EventJournal {
            inner: Arc::new(Inner {
                ring: Mutex::new(VecDeque::new()),
                capacity,
                next_seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// A poisoned ring mutex only means another thread panicked mid-push;
    /// the deque itself is never left structurally broken, so recording
    /// and reading continue (same policy as the metrics registry).
    fn lock_ring(&self) -> MutexGuard<'_, VecDeque<JournalEvent>> {
        match self.inner.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records one event. `fields` are `(key, value)` detail pairs;
    /// values are plain strings (format numbers with `to_string()` — the
    /// journal favors greppability over typed payloads).
    pub fn record(
        &self,
        severity: Severity,
        component: &str,
        name: &str,
        fields: &[(&str, String)],
    ) {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let event = JournalEvent {
            seq,
            unix_ms,
            severity,
            component: component.to_string(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        };
        let mut ring = self.lock_ring();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// [`record`](Self::record) at [`Severity::Info`].
    pub fn info(&self, component: &str, name: &str, fields: &[(&str, String)]) {
        self.record(Severity::Info, component, name, fields);
    }

    /// [`record`](Self::record) at [`Severity::Warn`].
    pub fn warn(&self, component: &str, name: &str, fields: &[(&str, String)]) {
        self.record(Severity::Warn, component, name, fields);
    }

    /// [`record`](Self::record) at [`Severity::Error`].
    pub fn error(&self, component: &str, name: &str, fields: &[(&str, String)]) {
        self.record(Severity::Error, component, name, fields);
    }

    /// The most recent `n` events, oldest first. `n >= len()` returns
    /// everything currently retained.
    pub fn recent(&self, n: usize) -> Vec<JournalEvent> {
        let ring = self.lock_ring();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.lock_ring().len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.inner.next_seq.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Renders the most recent `n` events as JSON lines (one event per
    /// line, oldest first). Serialization happens on a snapshot, outside
    /// the ring lock.
    pub fn export_jsonl(&self, n: usize) -> String {
        let events = self.recent(n);
        let mut out = String::new();
        for e in &events {
            match serde_json::to_string(e) {
                Ok(line) => {
                    out.push_str(&line);
                    out.push('\n');
                }
                Err(_) => {
                    // a journal event is a tree of strings and integers;
                    // serialization cannot fail, but never panic in an
                    // observability path
                    debug_assert!(false, "journal event failed to serialize");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let j = EventJournal::new(16);
        j.info("wal", "rotated", &[("segment", "wal-3".to_string())]);
        j.warn("wal", "sealed", &[]);
        j.error(
            "durable",
            "degraded",
            &[("reason", "disk gone".to_string())],
        );
        let events = j.recent(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "rotated");
        assert_eq!(events[0].severity, Severity::Info);
        assert_eq!(events[2].component, "durable");
        assert_eq!(events[2].fields[0].1, "disk gone");
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let j = EventJournal::new(4);
        for i in 0..10 {
            j.info("t", "e", &[("i", i.to_string())]);
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.recorded(), 10);
        let events = j.recent(100);
        // the survivors are the newest four, in order
        assert_eq!(events[0].fields[0].1, "6");
        assert_eq!(events[3].fields[0].1, "9");
    }

    #[test]
    fn recent_limits_to_n_newest() {
        let j = EventJournal::new(16);
        for i in 0..8 {
            j.info("t", "e", &[("i", i.to_string())]);
        }
        let last2 = j.recent(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].fields[0].1, "6");
        assert_eq!(last2[1].fields[0].1, "7");
    }

    #[test]
    fn jsonl_round_trips_line_by_line() {
        let j = EventJournal::new(8);
        j.warn(
            "scrub",
            "quarantined",
            &[
                ("file", "ckpt-7".to_string()),
                ("reason", "crc \"mismatch\"\n".to_string()),
            ],
        );
        j.info("epoch", "published", &[("epoch", "3".to_string())]);
        let jsonl = j.export_jsonl(10);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, original) in lines.iter().zip(j.recent(10)) {
            let back: JournalEvent = serde_json::from_str(line).expect("each line parses");
            assert_eq!(back, original);
        }
    }

    #[test]
    fn clones_share_one_ring() {
        let j = EventJournal::new(8);
        let j2 = j.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    j2.info("a", "x", &[]);
                }
            });
            for _ in 0..100 {
                j.info("b", "y", &[]);
            }
        });
        assert_eq!(j.recorded(), 200);
        assert_eq!(j.len() as u64 + j.dropped(), 200);
    }
}
