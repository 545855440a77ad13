//! A registry of named counters, gauges and histograms with Prometheus-text
//! and JSON exposition.
//!
//! [`MetricsRegistry`] is `Clone` (cheap `Arc` handle) so engines, workers
//! and observers can share one registry. Metric handles ([`Counter`],
//! [`Gauge`], [`Histogram`]) are themselves `Arc`-backed: registering the
//! same family name + label set twice returns a handle to the *same*
//! underlying metric, and updates through a handle never take the registry
//! lock.

use crate::hist::LogHistogram;
use crate::phase::PhaseNanos;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Quantiles exported for every histogram, as `(label, q)` pairs.
/// `quantile="1"` is the exact observed maximum.
const EXPORT_QUANTILES: [(&str, f64); 5] = [
    ("0.5", 0.5),
    ("0.9", 0.9),
    ("0.95", 0.95),
    ("0.99", 0.99),
    ("1", 1.0),
];

/// Monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, in-flight counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub(crate) fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub(crate) fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared handle to a [`LogHistogram`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<LogHistogram>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        lock_ok(&self.0).record(v);
    }

    /// Copies the current state out.
    pub(crate) fn snapshot(&self) -> LogHistogram {
        lock_ok(&self.0).clone()
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: metrics must
/// stay readable after a panicking worker (core::parallel isolates panics).
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "summary",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Sample {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    samples: Vec<Sample>,
}

/// A shared, clonable registry of metric families.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Family>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different metric kind,
    /// or if a name/label is not a valid Prometheus identifier.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            Metric::Counter(Counter::default())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind enforced by register"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics on kind mismatch or invalid identifiers (see
    /// [`counter_with`](Self::counter_with)).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels, || {
            Metric::Gauge(Gauge::default())
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind enforced by register"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a histogram with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics on kind mismatch or invalid identifiers (see
    /// [`counter_with`](Self::counter_with)).
    pub(crate) fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Histogram::default())
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind enforced by register"),
        }
    }

    /// Records a per-phase time breakdown into the `name` histogram family,
    /// one observation per phase that accumulated time, labeled
    /// `phase="<name>"`. Phases with zero time are skipped so idle phases
    /// do not drag quantiles to zero.
    pub fn observe_phases(&self, name: &str, help: &str, phases: &PhaseNanos) {
        for (phase, ns) in phases.iter() {
            if ns > 0 {
                self.histogram_with(name, help, &[("phase", phase.as_str())])
                    .record(ns);
            }
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(
            valid_metric_name(name),
            "invalid metric name `{name}` (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        for (k, _) in labels {
            assert!(
                valid_label_name(k),
                "invalid label name `{k}` (want [a-zA-Z_][a-zA-Z0-9_]*)"
            );
        }
        let mut fams = lock_ok(&self.inner);
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric `{name}` already registered as a {}",
                    f.kind.as_str()
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    kind,
                    samples: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = fam.samples.iter().find(|s| label_eq(&s.labels, labels)) {
            return s.metric.clone();
        }
        let metric = make();
        fam.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4). Histograms render as summaries with
    /// `quantile="0.5|0.9|0.95|0.99|1"` sample lines plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let fams = lock_ok(&self.inner);
        let mut out = String::new();
        for f in fams.iter() {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                f.name,
                escape_help(&f.help),
                f.name,
                f.kind.as_str()
            ));
            for s in &f.samples {
                match &s.metric {
                    Metric::Counter(c) => {
                        out.push_str(&sample_line(&f.name, &s.labels, None, c.get() as f64));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&sample_line(&f.name, &s.labels, None, g.get() as f64));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (label, q) in EXPORT_QUANTILES {
                            // a never-hit histogram has no quantiles; the
                            // Prometheus convention for empty summaries is
                            // NaN, not a fabricated 0 (which would read as
                            // a real "p99 = 0" to dashboards and alerts)
                            let v = if snap.count() == 0 {
                                f64::NAN
                            } else {
                                snap.quantile(q) as f64
                            };
                            out.push_str(&sample_line(
                                &f.name,
                                &s.labels,
                                Some(("quantile", label)),
                                v,
                            ));
                        }
                        let sum_name = format!("{}_sum", f.name);
                        let count_name = format!("{}_count", f.name);
                        out.push_str(&sample_line(&sum_name, &s.labels, None, snap.sum() as f64));
                        out.push_str(&sample_line(
                            &count_name,
                            &s.labels,
                            None,
                            snap.count() as f64,
                        ));
                    }
                }
            }
        }
        out
    }

    /// Captures a serializable point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let fams = lock_ok(&self.inner);
        let mut snap = RegistrySnapshot::default();
        for f in fams.iter() {
            for s in &f.samples {
                let labels: Vec<LabelPair> = s
                    .labels
                    .iter()
                    .map(|(k, v)| LabelPair {
                        name: k.clone(),
                        value: v.clone(),
                    })
                    .collect();
                match &s.metric {
                    Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                        name: f.name.clone(),
                        labels,
                        value: c.get(),
                    }),
                    Metric::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                        name: f.name.clone(),
                        labels,
                        value: g.get(),
                    }),
                    Metric::Histogram(h) => {
                        let hist = h.snapshot();
                        // quantiles of a never-hit histogram are undefined:
                        // export `null`, never a fabricated 0
                        let q = |p: f64| (hist.count() > 0).then(|| hist.quantile(p));
                        snap.histograms.push(HistogramSnapshot {
                            name: f.name.clone(),
                            labels,
                            count: hist.count(),
                            sum: hist.sum() as f64,
                            min: hist.min(),
                            max: hist.max(),
                            mean: hist.mean(),
                            p50: q(0.5),
                            p90: q(0.9),
                            p95: q(0.95),
                            p99: q(0.99),
                        })
                    }
                }
            }
        }
        snap
    }

    /// Renders a JSON snapshot (see [`RegistrySnapshot`]).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot())
            .expect("registry snapshot serialization is infallible")
    }
}

/// One label on a snapshot sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelPair {
    /// Label name.
    pub name: String,
    /// Label value.
    pub value: String,
}

/// Snapshot of one counter sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<LabelPair>,
    /// Counter value.
    pub value: u64,
}

/// Snapshot of one gauge sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<LabelPair>,
    /// Gauge value.
    pub value: i64,
}

/// Snapshot of one histogram sample with its headline quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<LabelPair>,
    /// Observation count.
    pub count: u64,
    /// Sum of observations (lossy `f64`, matching Prometheus exposition).
    pub sum: f64,
    /// Exact minimum observation.
    pub min: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (≤12.5% relative error); `None` when no
    /// observation was ever recorded — quantiles of an empty distribution
    /// are undefined, and exporting 0 would be indistinguishable from a
    /// real measurement of 0.
    pub p50: Option<u64>,
    /// 90th percentile (≤12.5% relative error); `None` when empty.
    pub p90: Option<u64>,
    /// 95th percentile (≤12.5% relative error); `None` when empty.
    pub p95: Option<u64>,
    /// 99th percentile (≤12.5% relative error); `None` when empty.
    pub p99: Option<u64>,
}

/// Point-in-time snapshot of a whole [`MetricsRegistry`], serializable to
/// JSON for `--metrics-out`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All counter samples, in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// All gauge samples, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histogram samples, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Looks up a histogram sample by family name and (exact) label set.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| {
            h.name == name
                && h.labels.len() == labels.len()
                && h.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|(a, (k, v))| a.name == *k && a.value == *v)
        })
    }

    /// Looks up a counter sample by family name and (exact) label set.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == labels.len()
                    && c.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|(a, (k, v))| a.name == *k && a.value == *v)
            })
            .map(|c| c.value)
    }

    /// Looks up a gauge sample by family name and (exact) label set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && g.labels.len() == labels.len()
                    && g.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|(a, (k, v))| a.name == *k && a.value == *v)
            })
            .map(|g| g.value)
    }
}

fn label_eq(stored: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    stored.len() == wanted.len()
        && stored
            .iter()
            .zip(wanted.iter())
            .all(|((sk, sv), (wk, wv))| sk == wk && sv == wv)
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats one exposition sample line, merging the sample's labels with an
/// optional extra (quantile) label.
fn sample_line(
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: f64,
) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    let labelset = if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    };
    format!("{name}{labelset} {}\n", fmt_value(value))
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

/// Outcome of a successful [`validate_prometheus_text`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Number of `# TYPE`-declared metric families.
    pub families: usize,
    /// Number of sample lines.
    pub samples: usize,
}

/// Validates a Prometheus text exposition: every line must be a well-formed
/// comment/`HELP`/`TYPE` line or a `name{labels} value [timestamp]` sample;
/// `TYPE`/`HELP` may appear at most once per family; no two samples may
/// share the same name *and* label set. Returns family/sample counts on
/// success, or a message naming the first offending line.
pub fn validate_prometheus_text(text: &str) -> Result<ValidationSummary, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut seen_samples: Vec<String> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name `{name}`"));
                }
                let kind = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE `{name}` without a kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric kind `{kind}`"));
                }
                if typed.iter().any(|t| t == name) {
                    return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
                }
                typed.push(name.to_owned());
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("line {lineno}: HELP without a metric name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name `{name}`"));
                }
                if helped.iter().any(|h| h == name) {
                    return Err(format!("line {lineno}: duplicate HELP for `{name}`"));
                }
                helped.push(name.to_owned());
            }
            // other comment lines are fine
            continue;
        }
        let key = parse_sample_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if seen_samples.contains(&key) {
            return Err(format!("line {lineno}: duplicate sample `{key}`"));
        }
        seen_samples.push(key);
    }
    Ok(ValidationSummary {
        families: typed.len(),
        samples: seen_samples.len(),
    })
}

/// Parses one sample line, returning its identity key `name{labels}`.
fn parse_sample_line(line: &str) -> Result<String, String> {
    let (name_part, rest) = match line.find(['{', ' ']) {
        Some(i) => line.split_at(i),
        None => return Err(format!("sample `{line}` has no value")),
    };
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name `{name_part}`"));
    }
    let (labelset, value_part) = if let Some(after) = rest.strip_prefix('{') {
        let close = after
            .find('}')
            .ok_or_else(|| format!("unterminated label set in `{line}`"))?;
        let inner = &after[..close];
        // validate each label pair
        if !inner.is_empty() {
            for pair in split_label_pairs(inner)? {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label `{pair}` missing `=`"))?;
                if !valid_label_name(k) {
                    return Err(format!("invalid label name `{k}`"));
                }
                if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                    return Err(format!("label value `{v}` must be double-quoted"));
                }
            }
        }
        (format!("{{{inner}}}"), &after[close + 1..])
    } else {
        (String::new(), rest)
    };
    let mut fields = value_part.split_whitespace();
    let value = fields
        .next()
        .ok_or_else(|| format!("sample `{line}` has no value"))?;
    let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !value_ok {
        return Err(format!("unparseable sample value `{value}`"));
    }
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("unparseable timestamp `{ts}`"))?;
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage on sample `{line}`"));
    }
    Ok(format!("{name_part}{labelset}"))
}

/// Splits `k="v",k2="v2"` label text on commas that are not inside quotes.
fn split_label_pairs(inner: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_quotes {
        return Err(format!("unterminated quote in label set `{inner}`"));
    }
    let tail = &inner[start..];
    if !tail.is_empty() {
        out.push(tail);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    #[test]
    fn handles_share_state_across_clones() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("uots_test_total", "a counter");
        let reg2 = reg.clone();
        let c2 = reg2.counter("uots_test_total", "a counter");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        assert_eq!(c2.get(), 4);

        let g = reg.gauge_with("uots_depth", "queue depth", &[("worker", "0")]);
        g.set(5);
        g.dec();
        assert_eq!(
            reg2.gauge_with("uots_depth", "queue depth", &[("worker", "0")])
                .get(),
            4
        );
        // different labels -> different sample
        let g1 = reg.gauge_with("uots_depth", "queue depth", &[("worker", "1")]);
        assert_eq!(g1.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("uots_thing", "x");
        reg.gauge("uots_thing", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        MetricsRegistry::new().counter("uots thing", "x");
    }

    #[test]
    fn prometheus_export_has_correct_quantiles_and_validates() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with(
            "uots_query_phase_nanoseconds",
            "per-phase query time",
            &[("phase", "network_expansion")],
        );
        // known uniform distribution 1..=10_000: pX = X * 100
        for v in 1..=10_000u64 {
            h.record(v);
        }
        reg.counter("uots_queries_total", "queries run").add(7);

        let snap = reg.snapshot();
        let hs = snap
            .histogram(
                "uots_query_phase_nanoseconds",
                &[("phase", "network_expansion")],
            )
            .unwrap();
        assert_eq!(hs.count, 10_000);
        for (got, truth) in [(hs.p50, 5_000.0), (hs.p95, 9_500.0), (hs.p99, 9_900.0)] {
            let got = got.expect("non-empty histogram has quantiles");
            let rel = (got as f64 - truth).abs() / truth;
            assert!(rel <= 0.125, "got {got}, truth {truth}");
        }
        assert_eq!(hs.max, 10_000);
        assert_eq!(snap.counter("uots_queries_total", &[]), Some(7));

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE uots_query_phase_nanoseconds summary"));
        assert!(text.contains("phase=\"network_expansion\",quantile=\"0.99\""));
        assert!(
            text.contains("uots_query_phase_nanoseconds_count{phase=\"network_expansion\"} 10000")
        );
        assert!(text.contains("uots_queries_total 7"));
        let summary = validate_prometheus_text(&text).expect("export must validate");
        assert_eq!(summary.families, 2);
        // 5 quantiles + sum + count + 1 counter sample
        assert_eq!(summary.samples, 8);

        let json = reg.render_json();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn never_hit_histogram_exports_no_misleading_quantiles() {
        let reg = MetricsRegistry::new();
        reg.histogram("uots_recovery_ns", "recovery time"); // registered, never recorded
        reg.histogram("uots_busy_ns", "busy one").record(0); // a REAL zero observation

        // JSON: empty → null quantiles; a real 0 observation → Some(0)
        let snap = reg.snapshot();
        let empty = snap.histogram("uots_recovery_ns", &[]).unwrap();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50, None);
        assert_eq!(empty.p99, None);
        let busy = snap.histogram("uots_busy_ns", &[]).unwrap();
        assert_eq!(busy.p99, Some(0), "a recorded zero is a value, not absence");

        // Prometheus: empty summary quantiles are NaN, never 0
        let text = reg.render_prometheus();
        assert!(
            text.contains("uots_recovery_ns{quantile=\"0.99\"} NaN"),
            "{text}"
        );
        assert!(text.contains("uots_recovery_ns_count 0"), "{text}");
        assert!(text.contains("uots_busy_ns{quantile=\"0.99\"} 0"), "{text}");
        validate_prometheus_text(&text).expect("NaN quantiles must validate");

        // the JSON round-trips through serde with the nulls intact
        let back: RegistrySnapshot = serde_json::from_str(&reg.render_json()).unwrap();
        assert_eq!(back.histogram("uots_recovery_ns", &[]).unwrap().p99, None);
    }

    #[test]
    fn observe_phases_records_only_active_phases() {
        let reg = MetricsRegistry::new();
        let mut pn = PhaseNanos::ZERO;
        pn.add(Phase::NetworkExpansion, 1_000);
        pn.add(Phase::TextFilter, 250);
        reg.observe_phases("uots_phase_ns", "phase time", &pn);
        let snap = reg.snapshot();
        assert!(snap
            .histogram("uots_phase_ns", &[("phase", "network_expansion")])
            .is_some());
        assert!(snap
            .histogram("uots_phase_ns", &[("phase", "candidate_refine")])
            .is_none());
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let good = "# HELP a_total help text\n# TYPE a_total counter\na_total 1\n\
                    # TYPE b gauge\nb{x=\"1\",y=\"two words\"} -3.5\nb{x=\"2\"} +Inf\n";
        let s = validate_prometheus_text(good).unwrap();
        assert_eq!(s.families, 2);
        assert_eq!(s.samples, 3);

        // duplicate TYPE
        assert!(validate_prometheus_text("# TYPE a counter\n# TYPE a counter\n").is_err());
        // duplicate sample (same name + labels)
        assert!(validate_prometheus_text("a 1\na 2\n").is_err());
        // unquoted label value
        assert!(validate_prometheus_text("a{x=1} 2\n").is_err());
        // bad value
        assert!(validate_prometheus_text("a{x=\"1\"} fast\n").is_err());
        // bad kind
        assert!(validate_prometheus_text("# TYPE a speedometer\n").is_err());
        // unterminated label set
        assert!(validate_prometheus_text("a{x=\"1\" 2\n").is_err());
        // label values containing commas must not split
        assert!(validate_prometheus_text("a{x=\"1,2\"} 3\n").is_ok());
    }

    #[test]
    fn escaping_survives_validation() {
        let reg = MetricsRegistry::new();
        reg.counter_with(
            "uots_weird",
            "help with \\ and\nnewline",
            &[("q", "a\"b,c\\d")],
        )
        .inc();
        let text = reg.render_prometheus();
        validate_prometheus_text(&text).expect("escaped export must validate");
    }
}
