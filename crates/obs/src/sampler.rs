//! Tail-based trace sampling: keep exemplars of the queries worth
//! debugging, drop the boring ones.
//!
//! Head sampling (trace every Nth query) mostly captures the fast,
//! healthy majority — precisely the queries nobody investigates. The
//! [`TailSampler`] decides *after* a query finishes, when its latency and
//! outcome are known, and keeps an exemplar only when the query was
//!
//! * **slow** — latency strictly above an adaptive threshold, the
//!   running p-quantile (default p99) of a [`LogHistogram`] the sampler
//!   feeds with every observed latency; the threshold therefore tracks
//!   the workload instead of needing hand-tuning (strictly above, so a
//!   perfectly uniform workload — where every latency ties the p99 —
//!   keeps nothing);
//! * **best-effort** — the execution budget interrupted it and the
//!   result carries a certified gap instead of an exact answer; or
//! * **errored** (including panicked worker queries in a batch).
//!
//! The exemplar store is a bounded ring with per-reason counters and an
//! eviction count, exported as JSON for the `/traces` endpoint of
//! [`serve`](crate::serve).
//!
//! ## Tracing modes and overhead
//!
//! A full [`QueryTrace`] exemplar requires the query to have *run* with a
//! tracing [`Recorder`](crate::Recorder) — which costs span bookkeeping on
//! every query, kept or not. So the caller chooses:
//!
//! * metadata-only: callers keep their recorder disabled and pass no
//!   trace; exemplars carry latency/outcome/threshold but no spans.
//!   Per-query overhead is one histogram record plus a branch.
//! * traced: callers run each query with a tracing recorder and hand the
//!   trace to [`observe`](TailSampler::observe); kept exemplars carry the
//!   full timeline.

use crate::hist::LogHistogram;
use crate::trace::QueryTrace;
use serde::{Content, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Why an exemplar was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Latency strictly above the adaptive slow threshold.
    Slow,
    /// The budget interrupted the query; the result is BestEffort.
    BestEffort,
    /// The query failed (error or worker panic).
    Error,
}

impl KeepReason {
    /// Lowercase wire name (`"slow"` / `"best_effort"` / `"error"`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            KeepReason::Slow => "slow",
            KeepReason::BestEffort => "best_effort",
            KeepReason::Error => "error",
        }
    }
}

impl std::fmt::Display for KeepReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One kept slow-query exemplar.
#[derive(Debug, Clone)]
pub(crate) struct TraceExemplar {
    /// Monotonic sequence number among kept exemplars.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at keep time.
    pub unix_ms: u64,
    /// Why it was kept.
    pub reason: KeepReason,
    /// Query label (algorithm name or caller-supplied).
    pub query: String,
    /// Observed latency, microseconds.
    pub latency_us: u64,
    /// The slow threshold in force when the decision was made
    /// (0 while the sampler was still warming up).
    pub threshold_us: u64,
    /// Full span timeline, when the query ran traced.
    pub trace: Option<QueryTrace>,
}

impl Serialize for TraceExemplar {
    fn serialize(&self) -> Content {
        let mut m = vec![
            ("seq".to_string(), Content::U64(self.seq)),
            ("unix_ms".to_string(), Content::U64(self.unix_ms)),
            (
                "reason".to_string(),
                Content::Str(self.reason.as_str().to_string()),
            ),
            ("query".to_string(), Content::Str(self.query.clone())),
            ("latency_us".to_string(), Content::U64(self.latency_us)),
            ("threshold_us".to_string(), Content::U64(self.threshold_us)),
        ];
        match &self.trace {
            Some(t) => m.push(("trace".to_string(), t.serialize())),
            None => m.push(("trace".to_string(), Content::Null)),
        }
        Content::Map(m)
    }
}

/// Point-in-time sampler counters ([`TailSampler::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SamplerStats {
    /// Queries observed (kept or not).
    pub observed: u64,
    /// Exemplars kept because the query was slow.
    pub kept_slow: u64,
    /// Exemplars kept because the result was BestEffort.
    pub kept_best_effort: u64,
    /// Exemplars kept because the query errored.
    pub kept_error: u64,
    /// Kept exemplars evicted because the store wrapped.
    pub evicted: u64,
    /// Current adaptive slow threshold, microseconds (0 during warmup).
    pub threshold_us: u64,
}

impl SamplerStats {
    /// Total exemplars ever kept, across all reasons.
    pub(crate) fn kept_total(&self) -> u64 {
        self.kept_slow + self.kept_best_effort + self.kept_error
    }
}

impl Serialize for SamplerStats {
    fn serialize(&self) -> Content {
        Content::Map(vec![
            ("observed".to_string(), Content::U64(self.observed)),
            ("kept_slow".to_string(), Content::U64(self.kept_slow)),
            (
                "kept_best_effort".to_string(),
                Content::U64(self.kept_best_effort),
            ),
            ("kept_error".to_string(), Content::U64(self.kept_error)),
            ("kept_total".to_string(), Content::U64(self.kept_total())),
            ("evicted".to_string(), Content::U64(self.evicted)),
            ("threshold_us".to_string(), Content::U64(self.threshold_us)),
        ])
    }
}

struct Inner {
    capacity: usize,
    quantile: f64,
    warmup: u64,
    latency: Mutex<LogHistogram>,
    exemplars: Mutex<VecDeque<TraceExemplar>>,
    next_seq: AtomicU64,
    observed: AtomicU64,
    kept_slow: AtomicU64,
    kept_best_effort: AtomicU64,
    kept_error: AtomicU64,
    evicted: AtomicU64,
}

/// Tail-based slow-query sampler. Cloning is cheap (`Arc`); all clones
/// share one histogram and exemplar store. See the [module docs](self).
#[derive(Clone)]
pub struct TailSampler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TailSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TailSampler")
            .field("capacity", &self.inner.capacity)
            .field("observed", &s.observed)
            .field("kept", &s.kept_total())
            .field("threshold_us", &s.threshold_us)
            .finish()
    }
}

/// Default exemplar-store capacity.
pub const DEFAULT_EXEMPLAR_CAPACITY: usize = 64;
/// Default slow quantile: a query is slow when it lands at or above the
/// running p99.
pub const DEFAULT_SLOW_QUANTILE: f64 = 0.99;
/// Observations before the adaptive threshold is trusted; until then
/// nothing is kept as "slow" (BestEffort/Error are always kept).
pub(crate) const DEFAULT_WARMUP: u64 = 64;

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler::new(DEFAULT_EXEMPLAR_CAPACITY)
    }
}

impl TailSampler {
    /// Keeps at most `capacity` exemplars, slow = running p99 after a
    /// 64-query warmup.
    pub fn new(capacity: usize) -> TailSampler {
        Self::with_policy(capacity, DEFAULT_SLOW_QUANTILE, DEFAULT_WARMUP)
    }

    /// Fully explicit constructor: slow = running `quantile` after
    /// `warmup` observations.
    pub fn with_policy(capacity: usize, quantile: f64, warmup: u64) -> TailSampler {
        let capacity = capacity.max(1);
        TailSampler {
            inner: Arc::new(Inner {
                capacity,
                quantile: quantile.clamp(0.0, 1.0),
                warmup,
                latency: Mutex::new(LogHistogram::new()),
                exemplars: Mutex::new(VecDeque::with_capacity(capacity)),
                next_seq: AtomicU64::new(0),
                observed: AtomicU64::new(0),
                kept_slow: AtomicU64::new(0),
                kept_best_effort: AtomicU64::new(0),
                kept_error: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
            }),
        }
    }

    fn lock_latency(&self) -> MutexGuard<'_, LogHistogram> {
        match self.inner.latency.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_exemplars(&self) -> MutexGuard<'_, VecDeque<TraceExemplar>> {
        match self.inner.exemplars.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current adaptive slow threshold in microseconds: the running
    /// `quantile` of every latency observed so far, or 0 while fewer than
    /// `warmup` observations exist (during warmup nothing is "slow").
    pub(crate) fn threshold_us(&self) -> u64 {
        let hist = self.lock_latency();
        if hist.count() < self.inner.warmup {
            return 0;
        }
        hist.quantile(self.inner.quantile)
    }

    /// Feeds one finished query into the sampler: records its latency
    /// into the running histogram, decides whether it deserves an
    /// exemplar (error > best-effort > slow precedence), and if so keeps
    /// one. Returns the keep reason, `None` when the query was dropped as
    /// ordinary.
    ///
    /// `trace` is attached to the kept exemplar if present; pass `None`
    /// when running metadata-only.
    pub fn observe(
        &self,
        query: &str,
        latency_us: u64,
        best_effort: bool,
        errored: bool,
        trace: Option<QueryTrace>,
    ) -> Option<KeepReason> {
        self.inner.observed.fetch_add(1, Ordering::Relaxed);
        // threshold from the state *before* this observation, so one
        // outlier cannot raise the bar that judges it
        let (warmed, threshold_us) = {
            let mut hist = self.lock_latency();
            let warmed = hist.count() >= self.inner.warmup;
            let threshold = if warmed {
                hist.quantile(self.inner.quantile)
            } else {
                0
            };
            hist.record(latency_us);
            (warmed, threshold)
        };
        let reason = if errored {
            KeepReason::Error
        } else if best_effort {
            KeepReason::BestEffort
        } else if warmed && latency_us > threshold_us {
            KeepReason::Slow
        } else {
            return None;
        };
        match reason {
            KeepReason::Slow => self.inner.kept_slow.fetch_add(1, Ordering::Relaxed),
            KeepReason::BestEffort => self.inner.kept_best_effort.fetch_add(1, Ordering::Relaxed),
            KeepReason::Error => self.inner.kept_error.fetch_add(1, Ordering::Relaxed),
        };
        let exemplar = TraceExemplar {
            seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                .unwrap_or(0),
            reason,
            query: query.to_string(),
            latency_us,
            threshold_us,
            trace,
        };
        let mut store = self.lock_exemplars();
        if store.len() == self.inner.capacity {
            store.pop_front();
            self.inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        store.push_back(exemplar);
        Some(reason)
    }

    /// The currently retained exemplars, oldest first.
    pub(crate) fn exemplars(&self) -> Vec<TraceExemplar> {
        self.lock_exemplars().iter().cloned().collect()
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> SamplerStats {
        SamplerStats {
            observed: self.inner.observed.load(Ordering::Relaxed),
            kept_slow: self.inner.kept_slow.load(Ordering::Relaxed),
            kept_best_effort: self.inner.kept_best_effort.load(Ordering::Relaxed),
            kept_error: self.inner.kept_error.load(Ordering::Relaxed),
            evicted: self.inner.evicted.load(Ordering::Relaxed),
            threshold_us: self.threshold_us(),
        }
    }

    /// Renders `{"stats": ..., "exemplars": [...]}` as JSON — the
    /// `/traces` endpoint payload.
    pub(crate) fn export_json(&self) -> String {
        let doc = Content::Map(vec![
            ("stats".to_string(), self.stats().serialize()),
            (
                "exemplars".to_string(),
                Content::Seq(self.exemplars().iter().map(|e| e.serialize()).collect()),
            ),
        ]);
        struct Raw(Content);
        impl Serialize for Raw {
            fn serialize(&self) -> Content {
                self.0.clone()
            }
        }
        serde_json::to_string(&Raw(doc)).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_baseline(s: &TailSampler, n: u64, latency: u64) {
        for i in 0..n {
            let kept = s.observe(&format!("q{i}"), latency, false, false, None);
            // constant latencies tie the quantile and are never "slow"
            assert_eq!(kept, None, "query {i}");
        }
    }

    #[test]
    fn warmup_keeps_nothing_as_slow() {
        let s = TailSampler::new(8);
        feed_baseline(&s, DEFAULT_WARMUP - 1, 100);
        assert_eq!(s.threshold_us(), 0, "below warmup count");
        feed_baseline(&s, 2, 100);
        assert_eq!(s.stats().kept_slow, 0);
        assert_eq!(s.threshold_us(), 100, "warmed: running p99 of the workload");
    }

    #[test]
    fn outlier_above_running_p99_is_kept() {
        let s = TailSampler::new(8);
        feed_baseline(&s, 200, 100);
        let kept = s.observe("slowpoke", 10_000, false, false, None);
        assert_eq!(kept, Some(KeepReason::Slow));
        let ex = s.exemplars();
        let last = ex.last().unwrap();
        assert_eq!(last.query, "slowpoke");
        assert_eq!(last.latency_us, 10_000);
        assert!(last.threshold_us > 0 && last.threshold_us <= 10_000);
        assert!(last.trace.is_none());
    }

    #[test]
    fn fast_queries_after_warmup_are_dropped() {
        let s = TailSampler::new(8);
        feed_baseline(&s, 200, 1_000);
        // well below the p99 of a 1ms-uniform workload
        assert_eq!(s.observe("fast", 10, false, false, None), None);
        assert_eq!(s.stats().kept_slow, 0);
    }

    #[test]
    fn best_effort_and_error_always_kept_even_during_warmup() {
        let s = TailSampler::new(8);
        assert_eq!(
            s.observe("be", 5, true, false, None),
            Some(KeepReason::BestEffort)
        );
        assert_eq!(
            s.observe("err", 5, false, true, None),
            Some(KeepReason::Error)
        );
        // error outranks best-effort when both hold
        assert_eq!(
            s.observe("both", 5, true, true, None),
            Some(KeepReason::Error)
        );
        let st = s.stats();
        assert_eq!(st.kept_best_effort, 1);
        assert_eq!(st.kept_error, 2);
    }

    #[test]
    fn store_is_bounded_and_counts_evictions() {
        let s = TailSampler::new(3);
        for i in 0..10 {
            s.observe(&format!("e{i}"), 1, false, true, None);
        }
        let ex = s.exemplars();
        assert_eq!(ex.len(), 3);
        assert_eq!(s.stats().evicted, 7);
        assert_eq!(ex[0].query, "e7");
        assert_eq!(ex[2].query, "e9");
    }

    #[test]
    fn adaptive_threshold_tracks_the_workload() {
        let s = TailSampler::new(8);
        feed_baseline(&s, 200, 100);
        let low = s.threshold_us();
        // the workload shifts 50× slower; the first shifted queries are
        // kept as outliers, then the threshold follows the new regime
        for i in 0..2_000 {
            s.observe(&format!("shift{i}"), 5_000, false, false, None);
        }
        let high = s.threshold_us();
        assert!(
            high > low,
            "threshold must follow the workload: {low} -> {high}"
        );
    }

    #[test]
    fn export_json_is_parseable_and_carries_traces() {
        let s = TailSampler::new(4);
        let mut rec = crate::Recorder::tracing("traced", 16);
        rec.enter(crate::Phase::NetworkExpansion);
        rec.leave();
        let trace = rec.finish().unwrap().trace.unwrap();
        s.observe("traced", 50, true, false, Some(trace));
        let json = s.export_json();
        // parse back into the raw Content tree to check document shape
        struct RawDoc(serde::Content);
        impl serde::Deserialize for RawDoc {
            fn deserialize(c: &serde::Content) -> Result<Self, serde::DeError> {
                Ok(RawDoc(c.clone()))
            }
        }
        let doc = serde_json::from_str::<RawDoc>(&json).expect("valid json").0;
        let stats = doc.get("stats").expect("stats key");
        assert!(stats.get("kept_best_effort").is_some());
        let ex = doc.get("exemplars").and_then(|e| e.as_seq()).unwrap();
        assert_eq!(ex.len(), 1);
        assert!(
            ex[0].get("trace").and_then(|t| t.get("spans")).is_some(),
            "kept exemplar carries the span timeline"
        );
    }

    #[test]
    fn concurrent_observers_share_state() {
        let s = TailSampler::new(64);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        s.observe(&format!("t{t}-{i}"), 100 + i, false, false, None);
                    }
                });
            }
        });
        assert_eq!(s.stats().observed, 1000);
    }
}
