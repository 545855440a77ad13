//! What the benchmark runs and what it reports: the four workloads, and
//! the metric catalogue declared in `BENCHMARK.json`.

use serde::Content;

use crate::json;
use crate::layers::Shape;

/// The query shapes of the pools, by the name their per-shape metrics
/// carry: the four shapes of the S1 serving experiment plus the paper's
/// default shape.
pub const SHAPES: [(&str, Shape); 5] = [
    ("m2k2", (2, 2, 0.5)),
    ("m1k3", (1, 3, 0.5)),
    ("m10k1", (10, 1, 0.5)),
    ("m3k2l01", (3, 2, 0.1)),
    ("m4k3", (4, 3, 0.5)),
];

/// Results per query, in every pool.
pub const K: usize = 3;

/// The seed whose pool fingerprint is pinned.
pub const DEFAULT_SEED: u64 = 11;

/// `uots generate --seed` of every run. `--seed` draws the pools and the
/// write batches, not the dataset: two datasets of one configuration
/// differ by more than the bounds (five dataset seeds of `frontend_light`
/// gave 1,027 to 1,262 req/s where five runs on one dataset gave 1,215 to
/// 1,244), and a change is compared with its parent on the same files.
pub const DATASET_SEED: u64 = 11;

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `uots generate --preset`: `small` is a 900-vertex city on which
    /// the engine costs next to nothing, `brn` the 28k-vertex one of the
    /// paper's scale.
    pub preset: &'static str,
    pub trips: usize,
    /// `--shards`; 1 serves unsharded.
    pub shards: usize,
    /// Serve with `--wal-dir … --fsync batch`, write beside the reads,
    /// then crash and recover.
    pub durable: bool,
    /// Shapes of the measured pool, as indices into [`SHAPES`].
    pub shapes: &'static [usize],
    /// Shapes of the traced run's pool. The full-drain shape `m10k1` is
    /// traced but not measured end to end: its service time has so heavy
    /// a tail (p50 35 ms, p90 179 ms at 10k trips) that one run's few
    /// hundred draws of it move every mean by more than any bound.
    pub traced_shapes: &'static [usize],
    /// Distinct `/topk` bodies of the measured pool.
    pub pool: usize,
    /// Pool entries the traced run replays through the layers: a prefix
    /// of its pool, and so stratified by shape.
    pub replay: usize,
    /// Open-loop rates of the traced run, requests per second: about a
    /// quarter and a half of what two closed-loop clients reach.
    pub open_rates: [f64; 2],
    /// Fingerprints of the dataset file and of the measured pool for
    /// [`DEFAULT_SEED`]. A run with that seed that produces anything else
    /// has drifted from the workload the baselines were measured on.
    pub pinned: Option<(u64, u64)>,
}

const LIGHT: &[usize] = &[0, 1];
const MIXED: &[usize] = &[0, 1, 3, 4];
const ALL_SHAPES: &[usize] = &[0, 1, 2, 3, 4];

pub const WORKLOADS: [Workload; 4] = [
    // Replayed about a dozen times per run: whatever caches repeats, hits.
    Workload {
        name: "frontend_light",
        preset: "small",
        trips: 2_000,
        shards: 1,
        durable: false,
        shapes: LIGHT,
        traced_shapes: LIGHT,
        pool: 2_000,
        replay: 200,
        open_rates: [700.0, 1400.0],
        pinned: Some((0x15d0_f0bd_8472_88a5, 0x8924_f11f_62c2_0b7b)),
    },
    // More bodies than a run gets through: every request is distinct.
    Workload {
        name: "engine_mixed",
        preset: "brn",
        trips: 10_000,
        shards: 1,
        durable: false,
        shapes: MIXED,
        traced_shapes: ALL_SHAPES,
        pool: 4_000,
        replay: 50,
        open_rates: [60.0, 120.0],
        pinned: Some((0x373c_f33b_ac6d_0d30, 0xa694_ed76_f0f4_3443)),
    },
    Workload {
        name: "shard_fanout",
        preset: "brn",
        trips: 10_000,
        shards: 4,
        durable: false,
        shapes: MIXED,
        traced_shapes: ALL_SHAPES,
        pool: 4_000,
        replay: 50,
        open_rates: [25.0, 50.0],
        pinned: Some((0x373c_f33b_ac6d_0d30, 0xa694_ed76_f0f4_3443)),
    },
    Workload {
        name: "ingest_durable",
        preset: "small",
        trips: 10_000,
        shards: 2,
        durable: true,
        shapes: LIGHT,
        traced_shapes: LIGHT,
        pool: 2_000,
        replay: 200,
        open_rates: [300.0, 600.0],
        pinned: Some((0xe0c9_35ea_e5ea_21d2, 0xc493_56c2_6e94_2df7)),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload at a scale that sets up in well under a second:
    /// same phases, same checks, numbers that mean nothing.
    pub fn smoke(&self) -> Workload {
        Workload {
            preset: "small",
            trips: 300,
            pool: 60,
            replay: 60,
            pinned: None,
            ..*self
        }
    }

    /// The shape indices and the shapes of the pool of one half.
    pub fn pool_shapes(&self, trace: bool) -> (&'static [usize], Vec<Shape>) {
        let indices = if trace {
            self.traced_shapes
        } else {
            self.shapes
        };
        (indices, indices.iter().map(|&i| SHAPES[i].1).collect())
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

pub struct Catalogue {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: f64,
}

/// `BENCHMARK.json` as committed at the root of the repository.
const DECLARATION: &str = include_str!("../../../../../../BENCHMARK.json");

impl Catalogue {
    pub fn load() -> Catalogue {
        let root: Content =
            serde_json::from_str(DECLARATION).expect("BENCHMARK.json is valid JSON");
        let text = |c: &Content, key: &str| match c.get(key) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("BENCHMARK.json: `{key}` must be a string, got {other:?}"),
        };
        let number = |c: &Content, key: &str| c.get(key).and_then(json::as_f64);
        let list = |key: &str| -> &[Content] {
            root.get(key)
                .and_then(Content::as_seq)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: number(m, "bound"),
                })
                .collect()
        };
        Catalogue {
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: number(&root, "run_seconds").expect("run_seconds is a number"),
        }
    }

    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn declaration_meets_the_contract() {
        let c = Catalogue::load();
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(well_formed(&m.name, 64, "_.-"), "metric name `{}`", m.name);
            assert!(well_formed(&m.unit, 16, "_/%.-"), "unit `{}`", m.unit);
            assert!(
                !names.contains(&m.name.as_str()),
                "`{}` declared twice",
                m.name
            );
            names.push(&m.name);
        }
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.find("setup_s").expect("setup_s is declared");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let root: Content = serde_json::from_str(DECLARATION).expect("valid JSON");
        let text = |w: &Content, key: &str| match w.get(key) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("workload `{key}` must be a string, got {other:?}"),
        };
        let declared = root
            .get("workloads")
            .and_then(Content::as_seq)
            .expect("workloads");
        let names: Vec<String> = declared.iter().map(|w| text(w, "name")).collect();
        let implemented: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, implemented);
        for w in declared {
            assert!(well_formed(&text(w, "name"), 64, "_.-"));
            let why = text(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn every_shape_has_its_client_metric() {
        let c = Catalogue::load();
        for (name, _) in SHAPES {
            let metric = format!("client.shape_{name}.p50_ms");
            assert!(c.find(&metric).is_some(), "{metric} is not declared");
        }
    }
}
