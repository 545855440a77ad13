//! Phase-scoped span/event tracer with a bounded ring-buffer sink.
//!
//! A [`Recorder`] travels with one query execution. The engine marks phase
//! transitions with [`Recorder::enter`] / [`Recorder::leave`]; the recorder
//! attributes wall-clock time between transitions to the phase that was
//! active, coalescing consecutive steps of the same phase into a single
//! span. Three operating modes:
//!
//! * **disabled** ([`Recorder::disabled`]) — every call is a single
//!   `Option` branch; nothing is timed or allocated. This is the no-op sink
//!   the hot path pays for by default.
//! * **phases-only** ([`Recorder::phases_only`]) — accumulates a
//!   [`PhaseNanos`] breakdown, no span records.
//! * **tracing** ([`Recorder::tracing`]) — additionally keeps the last
//!   `capacity` coalesced phase spans in a ring buffer (oldest dropped,
//!   drop count reported), and renders a
//!   [`QueryTrace`] timeline at [`Recorder::finish`].
//!
//! The hot path stores only `Copy` segments (`Phase` + two offsets);
//! strings are materialized once at `finish`, off the hot path.

use crate::phase::{Phase, PhaseNanos};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::Instant;

/// Internal ring-buffer segment: one coalesced phase span. `Copy`, so
/// pushing it never allocates (the deque is pre-allocated to capacity).
#[derive(Debug, Clone, Copy)]
struct Seg {
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct TraceBuf {
    capacity: usize,
    segs: VecDeque<Seg>,
    dropped: u64,
}

#[derive(Debug)]
struct Active {
    label: String,
    started: Instant,
    phases: PhaseNanos,
    /// The currently open phase segment: `(phase, segment start)`.
    current: Option<(Phase, Instant)>,
    trace: Option<TraceBuf>,
}

/// Per-query telemetry recorder: disabled, phases-only or tracing.
#[derive(Debug, Default)]
pub struct Recorder {
    active: Option<Box<Active>>,
}

/// What a non-disabled [`Recorder`] produced: the per-phase time breakdown
/// and, in tracing mode, the span timeline.
#[derive(Debug, Clone)]
pub struct RecorderReport {
    /// Wall-clock nanoseconds attributed to each phase.
    pub phases: PhaseNanos,
    /// The span timeline (tracing mode only).
    pub trace: Option<QueryTrace>,
}

impl Recorder {
    /// The no-op sink: every recorder call is one branch, nothing is
    /// allocated or timed.
    pub fn disabled() -> Recorder {
        Recorder { active: None }
    }

    /// Accumulates a per-phase time breakdown without keeping spans.
    pub fn phases_only(label: impl Into<String>) -> Recorder {
        Recorder {
            active: Some(Box::new(Active {
                label: label.into(),
                started: Instant::now(),
                phases: PhaseNanos::ZERO,
                current: None,
                trace: None,
            })),
        }
    }

    /// Full tracing: phase breakdown plus the last `capacity` coalesced
    /// phase spans (ring buffer, oldest dropped first) and instant events.
    pub fn tracing(label: impl Into<String>, capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        Recorder {
            active: Some(Box::new(Active {
                label: label.into(),
                started: Instant::now(),
                phases: PhaseNanos::ZERO,
                current: None,
                trace: Some(TraceBuf {
                    capacity,
                    segs: VecDeque::with_capacity(capacity),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Marks the execution as being in `phase` from now on. Consecutive
    /// `enter` calls with the same phase coalesce into one span; a
    /// different phase closes the open span and opens a new one.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        let Some(a) = self.active.as_deref_mut() else {
            return;
        };
        if let Some((cur, _)) = a.current {
            if cur == phase {
                return; // coalesce
            }
        }
        let now = Instant::now();
        a.close_current(now);
        a.current = Some((phase, now));
    }

    /// Closes the open phase span (if any); time until the next `enter` is
    /// unattributed.
    #[inline]
    pub fn leave(&mut self) {
        let Some(a) = self.active.as_deref_mut() else {
            return;
        };
        if a.current.is_some() {
            a.close_current(Instant::now());
        }
    }

    /// The per-phase breakdown accumulated so far, including the still-open
    /// segment (which stays open). Lets an engine publish `phases` into its
    /// `SearchMetrics` while the caller keeps the recorder alive for the
    /// final trace. Zero for a disabled recorder.
    pub fn phases_snapshot(&self) -> PhaseNanos {
        match self.active.as_deref() {
            None => PhaseNanos::ZERO,
            Some(a) => {
                let mut p = a.phases;
                if let Some((phase, seg_start)) = a.current {
                    p.add(
                        phase,
                        u64::try_from(seg_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                p
            }
        }
    }

    /// Closes any open span and returns what was recorded, or `None` for a
    /// disabled recorder. The recorder is left disabled.
    pub fn finish(&mut self) -> Option<RecorderReport> {
        let mut a = self.active.take()?;
        let now = Instant::now();
        a.close_current(now);
        let total_ns = a.rel_ns(now);
        let trace = a.trace.take().map(|buf| {
            let mut spans = Vec::with_capacity(buf.segs.len() + 1);
            spans.push(SpanRecord {
                name: "query".to_owned(),
                depth: 0,
                start_ns: 0,
                end_ns: total_ns,
            });
            spans.extend(buf.segs.iter().map(|s| SpanRecord {
                name: s.phase.as_str().to_owned(),
                depth: 1,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            }));
            QueryTrace {
                query: a.label.clone(),
                total_ns,
                dropped_spans: buf.dropped,
                spans,
                events: Vec::new(),
            }
        });
        Some(RecorderReport {
            phases: a.phases,
            trace,
        })
    }
}

impl Active {
    #[inline]
    fn rel_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.started).as_nanos()).unwrap_or(u64::MAX)
    }

    fn close_current(&mut self, now: Instant) {
        let Some((phase, seg_start)) = self.current.take() else {
            return;
        };
        let ns = u64::try_from(now.duration_since(seg_start).as_nanos()).unwrap_or(u64::MAX);
        self.phases.add(phase, ns);
        let start_ns = self.rel_ns(seg_start);
        let end_ns = self.rel_ns(now);
        if let Some(t) = self.trace.as_mut() {
            if t.segs.len() == t.capacity {
                t.segs.pop_front();
                t.dropped += 1;
            }
            t.segs.push_back(Seg {
                phase,
                start_ns,
                end_ns,
            });
        }
    }
}

/// One span of a [`QueryTrace`] timeline. Offsets are nanoseconds relative
/// to the start of the root `query` span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// `"query"` for the root span, otherwise a [`Phase`] name.
    pub name: String,
    /// 0 for the root span, 1 for phase spans nested inside it.
    pub depth: u32,
    /// Start offset (ns, relative to query start).
    pub start_ns: u64,
    /// End offset (ns, relative to query start).
    pub end_ns: u64,
}

/// An instant event on a [`QueryTrace`] timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Offset (ns, relative to query start).
    pub at_ns: u64,
}

/// A per-query timeline: one root `query` span plus coalesced phase spans
/// nested below it. Serializes to JSON via the workspace serde.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Label identifying the traced query.
    pub query: String,
    /// Total wall-clock nanoseconds of the root span.
    pub total_ns: u64,
    /// Spans evicted from the ring buffer (0 when the capacity sufficed).
    pub dropped_spans: u64,
    /// Root span first, then phase spans in chronological order.
    pub spans: Vec<SpanRecord>,
    /// Instant events in chronological order. A [`Recorder`] records
    /// none; the field keeps the trace format.
    pub events: Vec<EventRecord>,
}

impl QueryTrace {
    /// Structural invariants every trace must satisfy: exactly one root
    /// span covering `[0, total_ns]`; every phase span well-formed, nested
    /// inside the root, at depth 1, in chronological non-overlapping order;
    /// and the phase spans' total duration no larger than the root's.
    pub fn validate(&self) -> Result<(), String> {
        let Some(root) = self.spans.first() else {
            return Err("trace has no spans".into());
        };
        if root.name != "query" || root.depth != 0 {
            return Err(format!("first span must be the depth-0 root, got {root:?}"));
        }
        if root.start_ns != 0 || root.end_ns != self.total_ns {
            return Err("root span must cover [0, total_ns]".into());
        }
        let mut prev_end = 0u64;
        let mut phase_total = 0u64;
        for s in &self.spans[1..] {
            if s.depth != 1 {
                return Err(format!("phase span {} has depth {}", s.name, s.depth));
            }
            if Phase::parse(&s.name).is_none() {
                return Err(format!("unknown phase span name `{}`", s.name));
            }
            if s.start_ns > s.end_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            if s.end_ns > root.end_ns {
                return Err(format!("span {} escapes the root span", s.name));
            }
            if s.start_ns < prev_end {
                return Err(format!("span {} overlaps its predecessor", s.name));
            }
            prev_end = s.end_ns;
            phase_total += s.end_ns - s.start_ns;
        }
        if phase_total > self.total_ns {
            return Err(format!(
                "phase spans sum to {phase_total}ns > total {}ns",
                self.total_ns
            ));
        }
        for e in &self.events {
            if e.at_ns > self.total_ns {
                return Err(format!("event {} escapes the root span", e.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(());
        }
    }

    #[test]
    fn disabled_recorder_reports_nothing() {
        let mut r = Recorder::disabled();
        r.enter(Phase::NetworkExpansion);
        r.leave();
        assert!(r.finish().is_none());
    }

    #[test]
    fn phases_only_accumulates_without_spans() {
        let mut r = Recorder::phases_only("q0");
        r.enter(Phase::NetworkExpansion);
        spin(50_000);
        r.enter(Phase::CandidateRefine);
        spin(50_000);
        r.leave();
        let rep = r.finish().unwrap();
        assert!(rep.trace.is_none());
        assert!(rep.phases.nanos(Phase::NetworkExpansion) > 0);
        assert!(rep.phases.nanos(Phase::CandidateRefine) > 0);
        assert_eq!(rep.phases.nanos(Phase::TextFilter), 0);
    }

    #[test]
    fn tracing_coalesces_and_nests() {
        let mut r = Recorder::tracing("q1", 64);
        for _ in 0..10 {
            r.enter(Phase::NetworkExpansion); // coalesces into one span
            spin(5_000);
        }
        r.enter(Phase::HeapMaintenance);
        spin(5_000);
        r.enter(Phase::NetworkExpansion);
        spin(5_000);
        r.leave();
        let rep = r.finish().unwrap();
        let trace = rep.trace.unwrap();
        trace.validate().expect("trace must validate");
        // 1 root + 3 coalesced spans (10 expansion steps merged into one)
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[0].name, "query");
        assert_eq!(trace.spans[1].name, "network_expansion");
        assert_eq!(trace.spans[2].name, "heap_maintenance");
        assert_eq!(trace.spans[3].name, "network_expansion");
        assert_eq!(trace.dropped_spans, 0);
        // phase time never exceeds the root span
        let phase_span_total_ns: u64 = trace.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!(phase_span_total_ns <= trace.total_ns);
        // breakdown matches the spans
        assert_eq!(
            rep.phases.nanos(Phase::NetworkExpansion) + rep.phases.nanos(Phase::HeapMaintenance),
            phase_span_total_ns
        );
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut r = Recorder::tracing("q2", 4);
        let seq = [
            Phase::NetworkExpansion,
            Phase::TextFilter,
            Phase::CandidateRefine,
            Phase::HeapMaintenance,
        ];
        for i in 0..10 {
            r.enter(seq[i % seq.len()]);
        }
        r.leave();
        let trace = r.finish().unwrap().trace.unwrap();
        trace.validate().expect("dropped traces still validate");
        assert_eq!(trace.spans.len(), 1 + 4);
        assert_eq!(trace.dropped_spans, 6);
    }

    #[test]
    fn trace_json_round_trips() {
        let mut r = Recorder::tracing("roundtrip", 8);
        r.enter(Phase::JoinPair);
        spin(2_000);
        r.leave();
        let trace = r.finish().unwrap().trace.unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        let good = QueryTrace {
            query: "q".into(),
            total_ns: 100,
            dropped_spans: 0,
            spans: vec![
                SpanRecord {
                    name: "query".into(),
                    depth: 0,
                    start_ns: 0,
                    end_ns: 100,
                },
                SpanRecord {
                    name: "text_filter".into(),
                    depth: 1,
                    start_ns: 10,
                    end_ns: 40,
                },
            ],
            events: vec![],
        };
        good.validate().unwrap();

        let mut escapes = good.clone();
        escapes.spans[1].end_ns = 150;
        assert!(escapes.validate().is_err());

        let mut overlaps = good.clone();
        overlaps.spans.push(SpanRecord {
            name: "join_pair".into(),
            depth: 1,
            start_ns: 30,
            end_ns: 50,
        });
        assert!(overlaps.validate().is_err());

        let mut bad_name = good.clone();
        bad_name.spans[1].name = "mystery".into();
        assert!(bad_name.validate().is_err());

        let mut rootless = good;
        rootless.spans.remove(0);
        assert!(rootless.validate().is_err());
    }
}
