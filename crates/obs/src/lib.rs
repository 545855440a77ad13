//! # uots-obs
//!
//! Query telemetry for the UOTS reproduction: phase-scoped tracing,
//! log-bucketed latency histograms, and a metrics registry with
//! Prometheus-text and JSON exposition.
//!
//! The paper family's evaluation reports flat CPU time and
//! visited-trajectory counts; this crate adds the *where* and the *tail*:
//!
//! * [`Phase`] / [`PhaseNanos`] — the span taxonomy (`network_expansion`,
//!   `text_filter`, `candidate_refine`, `heap_maintenance`, `join_pair`)
//!   and the per-query time breakdown that rides along in
//!   `SearchMetrics`;
//! * [`Recorder`] — a per-query span/event tracer whose disabled mode is a
//!   single branch per call (the no-op sink), and whose tracing mode keeps
//!   a bounded ring buffer of coalesced phase spans renderable as a
//!   [`QueryTrace`] JSON timeline;
//! * [`LogHistogram`] — an HDR-style log-bucketed histogram (8 sub-buckets
//!   per power of two, ≤12.5% relative quantile error, exact min/max);
//! * [`MetricsRegistry`] — named counters/gauges/histograms shared by
//!   `Arc` handles, exported as Prometheus text
//!   ([`MetricsRegistry::render_prometheus`]) or JSON
//!   ([`MetricsRegistry::render_json`]), with
//!   [`validate_prometheus_text`] closing the loop in CI.
//!
//! On top of the per-query telemetry sits the operational plane:
//!
//! * [`EventJournal`] — a bounded ring of structured operational events
//!   (what happened when: seals, retries, degradations, quarantines) with
//!   JSON-lines export and drop counting;
//! * [`TailSampler`] — tail-based sampling that keeps full trace
//!   exemplars only for slow / best-effort / errored queries;
//! * [`AcceptLoop`] — the one dependency-free HTTP router: `TcpListener`
//!   workers serving `/metrics`, `/status`, `/journal`, and `/traces` of
//!   an [`ObsState`] live, beside whatever routes the embedder adds (the
//!   query service's `POST` endpoints), and writing every response.
//!
//! ```
//! use uots_obs::{MetricsRegistry, Phase, Recorder};
//!
//! let registry = MetricsRegistry::new();
//! let mut rec = Recorder::tracing("demo-query", 256);
//! rec.enter(Phase::NetworkExpansion);
//! // ... settle vertices ...
//! rec.enter(Phase::CandidateRefine);
//! // ... refine candidates ...
//! rec.leave();
//! let report = rec.finish().unwrap();
//! registry.observe_phases(
//!     "uots_query_phase_nanoseconds",
//!     "Wall-clock nanoseconds per query phase",
//!     &report.phases,
//! );
//! let trace = report.trace.unwrap();
//! trace.validate().unwrap();
//! let phase_ns: u64 = trace.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
//! assert!(phase_ns <= trace.total_ns);
//! uots_obs::validate_prometheus_text(&registry.render_prometheus()).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hist;
pub mod journal;
mod phase;
mod registry;
pub mod sampler;
pub mod serve;
mod trace;

pub use hist::LogHistogram;
pub use journal::{EventJournal, JournalEvent};
pub use phase::{Phase, PhaseNanos};
pub use registry::{
    validate_prometheus_text, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, LabelPair, MetricsRegistry, RegistrySnapshot, ValidationSummary,
};
pub use sampler::{TailSampler, DEFAULT_EXEMPLAR_CAPACITY, DEFAULT_SLOW_QUANTILE};
pub use serve::{AcceptLoop, HttpRequest, ObsState, Response, Stopper};
pub use trace::{EventRecord, QueryTrace, Recorder, RecorderReport, SpanRecord};
