//! Adaptive per-query algorithm selection from cheap statistics.
//!
//! All four UOTS algorithms return *identical* rankings (the differential
//! harness proves it per release); they differ only in cost, and which one
//! is cheapest depends on the query's shape. The [`Planner`] reads four
//! statistics that cost O(|query|) to compute — no index scans, no
//! expansion work — and dispatches:
//!
//! | statistic | source | cost |
//! |---|---|---|
//! | `m` — query locations | [`UotsQuery::num_locations`] | O(1) |
//! | `λ` — spatial weight | [`crate::Weights::spatial`] | O(1) |
//! | keyword selectivity | [`KeywordInvertedIndex::document_frequency`] of the *rarest* query keyword, over the live count | O(keywords) |
//! | dataset density | vertex-index postings per live trajectory (avg distinct vertices each trajectory touches) | O(1) |
//!
//! The decision rules (see [`Planner::decide`]) follow the density
//! dispatch of RouteMate's `determine_algorithm` and the
//! selectivity-driven pruning argument of Cong et al. ("Efficient Spatial
//! Keyword Search in Trajectory Databases"): route each query to the
//! algorithm whose pruning lever actually has purchase on it. In
//! particular, *full-drain-shaped* queries — many sources and ubiquitous
//! keywords, where per-trajectory bounds cannot prune — go to
//! [`BruteForce`], whose evaluation rides the shared-frontier
//! [`crate::MultiSourceExpansion`] when a layout is attached: one batched
//! Dijkstra instead of `m` scheduled single-source expansions.
//!
//! [`Planner`] implements [`Algorithm`], so it drops into the batch
//! executors ([`crate::parallel::run_batch_ctx`],
//! [`crate::parallel::run_batch_cluster`]) unchanged; `--force-algorithm` style overrides are carried by
//! [`Planner::forced`]. Result preservation is structural (any choice
//! returns the same ranking) and additionally pinned bit-exactly by
//! `tests/planner_differential.rs`.

use crate::algorithms::{Algorithm, BruteForce, Expansion, IknnBaseline, TextFirst};
use crate::budget::RunControl;
use crate::distcache::SearchContext;
use crate::{CoreError, Database, QueryResult, Scheduler, UotsQuery};
use uots_index::KeywordInvertedIndex;
use uots_obs::Recorder;

/// One of the four UOTS algorithms, as a value (the planner's output and
/// the `--force-algorithm` input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The exact oracle; full-drain evaluation (multi-source batched
    /// Dijkstra when a layout is attached).
    BruteForce,
    /// Textual filter-and-refine baseline (requires the keyword index).
    TextFirst,
    /// Lockstep-round candidate generation with the coarse radius bound.
    IknnBaseline,
    /// The paper's expansion search under the heuristic scheduler.
    Expansion,
}

impl AlgorithmKind {
    /// Every kind, in a fixed order (test sweeps).
    pub const ALL: [AlgorithmKind; 4] = [
        AlgorithmKind::BruteForce,
        AlgorithmKind::TextFirst,
        AlgorithmKind::IknnBaseline,
        AlgorithmKind::Expansion,
    ];

    /// Stable name, accepted back by [`AlgorithmKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::BruteForce => "brute-force",
            AlgorithmKind::TextFirst => "text-first",
            AlgorithmKind::IknnBaseline => "iknn-baseline",
            AlgorithmKind::Expansion => "expansion",
        }
    }

    /// Parses a kind name (the `--force-algorithm` escape hatch).
    pub fn parse(s: &str) -> Option<AlgorithmKind> {
        match s {
            "brute-force" | "bruteforce" | "oracle" => Some(AlgorithmKind::BruteForce),
            "text-first" | "textfirst" => Some(AlgorithmKind::TextFirst),
            "iknn-baseline" | "iknn" => Some(AlgorithmKind::IknnBaseline),
            "expansion" => Some(AlgorithmKind::Expansion),
            _ => None,
        }
    }

    /// Instantiates the algorithm (the expansion under the paper's
    /// heuristic scheduler).
    pub fn instantiate(self) -> Box<dyn Algorithm + Send + Sync> {
        match self {
            AlgorithmKind::BruteForce => Box::new(BruteForce),
            AlgorithmKind::TextFirst => Box::new(TextFirst),
            AlgorithmKind::IknnBaseline => Box::new(IknnBaseline::default()),
            AlgorithmKind::Expansion => Box::new(Expansion::new(Scheduler::heuristic())),
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cheap statistics one decision reads (returned alongside the choice
/// so services can log/expose them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Number of query locations (`m`).
    pub m: usize,
    /// Spatial weight λ (`weights.spatial`).
    pub lambda: f64,
    /// Document frequency of the *rarest* query keyword over the live
    /// trajectory count — `1.0` when there are no keywords, no keyword
    /// index, or no live trajectories (no textual filter power).
    pub selectivity: f64,
    /// Vertex-index postings per live trajectory: the average number of
    /// distinct vertices a trajectory touches. High density means every
    /// settled vertex discovers many candidates.
    pub density: f64,
    /// Live trajectory count.
    pub live: usize,
}

/// Live-count at or below which the oracle's single full drain beats any
/// pruning machinery's setup cost.
pub const TINY_LIVE: usize = 128;
/// `m` at or above which (with non-selective keywords) the query is
/// "full-drain-shaped": bounds cannot prune, so the shared-frontier
/// multi-source drain wins.
pub const FULL_DRAIN_M: usize = 8;
/// Selectivity at or above which keywords are considered ubiquitous
/// (useless as a filter).
pub const UBIQUITOUS_SELECTIVITY: f64 = 0.5;
/// Selectivity at or below which keywords are considered rare (a strong
/// filter).
pub const RARE_SELECTIVITY: f64 = 0.05;
/// λ at or below which the ranking is textually dominated.
pub const TEXT_LAMBDA: f64 = 0.25;
/// Text-first drains one full Dijkstra tree per query location before it
/// refines anything, so it pays `m · |V|` settles whatever the keywords
/// are; the expansion pays per *visited trajectory* instead. The route is
/// taken only while the drain is at most this many settles per live
/// trajectory. Calibrated against forced expansion on the m = 3, λ = 0.1
/// shape: on the 900-vertex city (1.35 and 0.27 settles per trajectory at
/// 2k and 10k trips) text-first wins 1.8× and 4×; on the 28k-vertex city
/// (42 and 8.5 at 2k and 10k) it loses 2.7× and 2×, with the break-even
/// extrapolating to ≈ 2.2.
pub const DRAIN_PER_LIVE: usize = 2;

/// A planning decision: the chosen algorithm, the statistics it was based
/// on, and a static reason string for logs/metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// The chosen algorithm.
    pub kind: AlgorithmKind,
    /// The statistics the choice was based on.
    pub stats: QueryStats,
    /// Static label for the rule that fired (metrics/journal friendly).
    pub reason: &'static str,
}

/// Per-query algorithm selector (see module docs). Implements
/// [`Algorithm`] by delegating each query to its chosen kind's
/// implementation, so it drops into the batch executors unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {
    force: Option<AlgorithmKind>,
}

impl Planner {
    /// A planner that decides per query.
    pub fn new() -> Planner {
        Planner::default()
    }

    /// A planner pinned to one algorithm — the `--force-algorithm` escape
    /// hatch. [`Planner::decide`] always returns `kind` with reason
    /// `"forced"`.
    pub fn forced(kind: AlgorithmKind) -> Planner {
        Planner { force: Some(kind) }
    }

    /// The pinned kind, if any.
    pub fn forced_kind(&self) -> Option<AlgorithmKind> {
        self.force
    }

    /// Computes the decision statistics for `query` over `db`. O(|query|).
    pub fn stats(db: &Database<'_>, query: &UotsQuery) -> QueryStats {
        let live = db.num_live();
        QueryStats {
            m: query.num_locations(),
            lambda: query.options().weights.spatial,
            selectivity: keyword_selectivity(db.keyword_index, query, live),
            density: if live == 0 {
                0.0
            } else {
                db.vertex_index.num_postings() as f64 / live as f64
            },
            live,
        }
    }

    /// Chooses the algorithm for `query` over `db`.
    ///
    /// Rule order (first match wins):
    /// 1. a forced kind, verbatim;
    /// 2. `live ≤` [`TINY_LIVE`] → [`AlgorithmKind::BruteForce`] (one
    ///    full drain is cheaper than any pruning setup);
    /// 3. `λ ≤` [`TEXT_LAMBDA`] *and* selectivity `≤` [`RARE_SELECTIVITY`]
    ///    (keyword index present) *and* `m · |V| ≤` [`DRAIN_PER_LIVE`]
    ///    `· live` → [`AlgorithmKind::TextFirst`] — rare keywords +
    ///    textually-dominated ranking make filter-and-refine touch almost
    ///    nothing, provided its up-front drain is small next to the live
    ///    set the expansion would visit;
    /// 4. `m ≥` [`FULL_DRAIN_M`] *and* selectivity `≥`
    ///    [`UBIQUITOUS_SELECTIVITY`] → [`AlgorithmKind::BruteForce`] —
    ///    the full-drain shape: many sources, no textual filter power,
    ///    bounds prune nothing, so the shared-frontier multi-source drain
    ///    (one batched Dijkstra) wins;
    /// 5. `m == 1` → [`AlgorithmKind::Expansion`] tagged
    ///    `"single-source"` — with one source there is nothing to
    ///    schedule, but the expansion's per-trajectory bound still
    ///    prunes where the baseline's coarse ring radius cannot (F1:
    ///    the baseline visits the whole live set at every m while
    ///    expansion prunes ≥ 86%), so the baseline is never the
    ///    cheapest route; the tag is kept for observability;
    /// 6. otherwise → [`AlgorithmKind::Expansion`], the paper's default.
    pub fn decide(&self, db: &Database<'_>, query: &UotsQuery) -> PlanDecision {
        let stats = Self::stats(db, query);
        if let Some(kind) = self.force {
            return PlanDecision {
                kind,
                stats,
                reason: "forced",
            };
        }
        let (kind, reason) = if stats.live <= TINY_LIVE {
            (AlgorithmKind::BruteForce, "tiny-live")
        } else if stats.lambda <= TEXT_LAMBDA
            && stats.selectivity <= RARE_SELECTIVITY
            && db.keyword_index.is_some()
            && !query.keywords().is_empty()
            && stats.m * db.network.num_nodes() <= DRAIN_PER_LIVE * stats.live
        {
            (AlgorithmKind::TextFirst, "rare-keywords-text-dominated")
        } else if stats.m >= FULL_DRAIN_M && stats.selectivity >= UBIQUITOUS_SELECTIVITY {
            (AlgorithmKind::BruteForce, "full-drain-shape")
        } else if stats.m == 1 {
            (AlgorithmKind::Expansion, "single-source")
        } else {
            (AlgorithmKind::Expansion, "default-expansion")
        };
        PlanDecision {
            kind,
            stats,
            reason,
        }
    }
}

/// Document frequency of the rarest query keyword over the live count;
/// `1.0` whenever the statistic is unavailable or meaningless (no
/// keywords, no index, nothing live) so the caller treats keywords as
/// having no filter power.
///
/// Keywords with *zero* postings — absent from the interned vocabulary,
/// or simply unseen by any (locally) live trajectory — are excluded from
/// the minimum. A zero-postings keyword looks maximally selective
/// (df/live = 0) but carries no filter power at all: TextFirst's
/// filter-and-refine degenerates to scanning everything the *other*
/// keywords admit, or, with no other keywords, the entire live set with a
/// per-location Dijkstra tree each. If every query keyword has zero
/// postings the statistic is 1.0. This matters per-shard, where any
/// keyword can be locally absent even though it is globally common.
fn keyword_selectivity(
    index: Option<&KeywordInvertedIndex<uots_trajectory::TrajectoryId>>,
    query: &UotsQuery,
    live: usize,
) -> f64 {
    let Some(idx) = index else { return 1.0 };
    if query.keywords().is_empty() || live == 0 {
        return 1.0;
    }
    let rarest = query
        .keywords()
        .iter()
        .map(|k| idx.document_frequency(k))
        .filter(|&df| df > 0)
        .min();
    match rarest {
        Some(df) => (df as f64 / live as f64).min(1.0),
        None => 1.0, // every keyword has zero postings: no filter power
    }
}

impl Algorithm for Planner {
    fn run_ctx(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
        ctx: &SearchContext,
    ) -> Result<QueryResult, CoreError> {
        let decision = self.decide(db, query);
        decision
            .kind
            .instantiate()
            .run_ctx(db, query, ctl, rec, ctx)
    }

    fn name(&self) -> &'static str {
        "planner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryOptions, Weights};
    use uots_datagen::{workload, Dataset, DatasetConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};

    fn dataset() -> Dataset {
        // large enough to clear TINY_LIVE
        Dataset::build(&DatasetConfig::small(200, 77)).expect("dataset builds")
    }

    /// A hand-built fixture with *controlled* keyword frequencies:
    /// keyword 0 on every trajectory (ubiquitous), keyword 1 on exactly
    /// one (rare). 200 trajectories clears [`TINY_LIVE`].
    fn controlled_fixture() -> (uots_network::RoadNetwork, uots_trajectory::TrajectoryStore) {
        use uots_network::generators::{grid_city, GridCityConfig};
        use uots_trajectory::{Sample, Trajectory, TrajectoryStore};
        let net = grid_city(&GridCityConfig::tiny(20)).unwrap();
        let mut store = TrajectoryStore::new();
        for i in 0..200u32 {
            let kws = if i == 0 {
                KeywordSet::from_ids([KeywordId(0), KeywordId(1)])
            } else {
                KeywordSet::from_ids([KeywordId(0)])
            };
            store.push(
                Trajectory::new(
                    vec![
                        Sample {
                            node: NodeId(i % 400),
                            time: 0.0,
                        },
                        Sample {
                            node: NodeId((i + 1) % 400),
                            time: 60.0,
                        },
                    ],
                    kws,
                )
                .unwrap(),
            );
        }
        (net, store)
    }

    fn query(ds: &Dataset, m: usize, keywords: &[KeywordId], lambda: f64, k: usize) -> UotsQuery {
        let spec = &workload::generate(
            ds,
            &workload::WorkloadConfig {
                num_queries: 1,
                locations_per_query: m,
                keywords_per_query: 0,
                seed: 4242,
                ..Default::default()
            },
        )[0];
        let mut locations = spec.locations.clone();
        locations.truncate(m);
        UotsQuery::with_options(
            locations,
            KeywordSet::from_ids(keywords.iter().copied()),
            vec![],
            QueryOptions {
                weights: Weights::lambda(lambda).unwrap(),
                k,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Satellite: table-driven decisions at the stat extremes, over a
    /// fixture with controlled keyword frequencies (keyword 0 ubiquitous
    /// — df/live = 1.0; keyword 1 rare — df/live = 0.005).
    #[test]
    fn decisions_at_stat_extremes() {
        let (net, store) = controlled_fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(2);
        let db = crate::Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
        let (ubiq, rare) = (KeywordId(0), KeywordId(1));
        let planner = Planner::new();

        // (m, keywords, λ) → expected kind
        let table: Vec<(usize, Vec<KeywordId>, f64, AlgorithmKind, &str)> = vec![
            // m=1, moderate λ: nothing to schedule, but the expansion
            // bound still prunes where the baseline's ring radius
            // cannot — never route to the strictly-dominated baseline
            (1, vec![rare], 0.5, AlgorithmKind::Expansion, "m=1"),
            // m=10 + ubiquitous keywords: the full-drain shape
            (
                10,
                vec![ubiq],
                0.5,
                AlgorithmKind::BruteForce,
                "m=10 ubiquitous",
            ),
            // rare keyword + λ→0 + a drain (1 · 400 settles) small next to
            // the live set: textually dominated filter-and-refine
            (1, vec![rare], 0.1, AlgorithmKind::TextFirst, "rare λ→0"),
            // same keywords and λ, but four full trees (1600 settles) for
            // 200 live trajectories: the drain outweighs the filter
            (
                4,
                vec![rare],
                0.1,
                AlgorithmKind::Expansion,
                "rare λ→0, big drain",
            ),
            // λ→1: spatially dominated — the paper's expansion
            (4, vec![rare], 0.9, AlgorithmKind::Expansion, "λ→1"),
            // m=10 but rare keywords: bounds still prune → expansion
            (10, vec![rare], 0.5, AlgorithmKind::Expansion, "m=10 rare"),
            // no keywords at all, moderate m: expansion default
            (4, vec![], 0.5, AlgorithmKind::Expansion, "no keywords"),
            // no keywords, high m: selectivity defaults to 1.0 → full drain
            (
                10,
                vec![],
                0.5,
                AlgorithmKind::BruteForce,
                "m=10 no keywords",
            ),
        ];
        for (m, kws, lambda, expect, label) in table {
            let locations: Vec<NodeId> = (0..m as u32).map(NodeId).collect();
            let q = UotsQuery::with_options(
                locations,
                KeywordSet::from_ids(kws.iter().copied()),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(lambda).unwrap(),
                    k: 3,
                    ..Default::default()
                },
            )
            .unwrap();
            let d = planner.decide(&db, &q);
            assert_eq!(d.kind, expect, "{label}: {:?}", d);
            assert_eq!(d.stats.m, m, "{label}");
        }
    }

    #[test]
    fn forced_kind_wins_over_every_rule() {
        let ds = dataset();
        let db = crate::Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let q = query(&ds, 1, &[], 0.5, 1);
        for kind in AlgorithmKind::ALL {
            let d = Planner::forced(kind).decide(&db, &q);
            assert_eq!(d.kind, kind);
            assert_eq!(d.reason, "forced");
        }
    }

    #[test]
    fn tiny_datasets_go_to_the_oracle() {
        let ds = Dataset::build(&DatasetConfig::small(30, 5)).unwrap();
        let db = crate::Database::new(&ds.network, &ds.store, &ds.vertex_index)
            .with_keyword_index(&ds.keyword_index);
        let q = UotsQuery::new(vec![NodeId(0), NodeId(1)], KeywordSet::empty()).unwrap();
        let d = Planner::new().decide(&db, &q);
        assert_eq!(d.kind, AlgorithmKind::BruteForce);
        assert_eq!(d.reason, "tiny-live");
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            AlgorithmKind::parse("iknn"),
            Some(AlgorithmKind::IknnBaseline)
        );
        assert_eq!(AlgorithmKind::parse("nope"), None);
    }

    /// Regression: a keyword with *zero* postings (absent from the
    /// interned vocab, or unseen by any locally live trajectory) must not
    /// read as "maximally selective". Before the fix, df = 0 → selectivity
    /// 0.0 → the rare-keywords rule mis-routed the query to TextFirst,
    /// whose filter touches nothing and whose refine degenerates to a
    /// full scan. Zero-postings keywords are ignored in the rarest-keyword
    /// minimum; if every keyword has zero postings the statistic is 1.0.
    #[test]
    fn zero_postings_keyword_does_not_count_as_selective() {
        let (net, store) = controlled_fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        // index built over a wider vocab than the store uses: keyword 2+
        // are interned but have no postings anywhere
        let kidx = store.build_keyword_index(8);
        let db = crate::Database::new(&net, &store, &vidx).with_keyword_index(&kidx);
        let planner = Planner::new();
        let q = |kws: Vec<KeywordId>| {
            UotsQuery::with_options(
                vec![NodeId(0)],
                KeywordSet::from_ids(kws),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(0.1).unwrap(),
                    k: 3,
                    ..Default::default()
                },
            )
            .unwrap()
        };

        // only zero-postings keywords: no filter power → selectivity 1.0,
        // and the text-dominated rule must NOT fire
        let d = planner.decide(&db, &q(vec![KeywordId(5)]));
        assert_eq!(d.stats.selectivity, 1.0, "{d:?}");
        assert_ne!(d.kind, AlgorithmKind::TextFirst, "{d:?}");

        // zero-postings keyword alongside an ubiquitous one: selectivity
        // must come from the ubiquitous keyword (1.0), not the absent one
        let d = planner.decide(&db, &q(vec![KeywordId(0), KeywordId(5)]));
        assert_eq!(d.stats.selectivity, 1.0, "{d:?}");
        assert_ne!(d.kind, AlgorithmKind::TextFirst, "{d:?}");

        // zero-postings keyword alongside a genuinely rare one: the rare
        // keyword still carries real filter power → TextFirst stays the
        // right route
        let d = planner.decide(&db, &q(vec![KeywordId(1), KeywordId(5)]));
        assert!(d.stats.selectivity <= RARE_SELECTIVITY, "{d:?}");
        assert_eq!(d.kind, AlgorithmKind::TextFirst, "{d:?}");
    }

    /// Without a keyword index the selectivity statistic degrades to 1.0
    /// and TextFirst (which requires the index) is never chosen.
    #[test]
    fn no_keyword_index_never_chooses_text_first() {
        let (net, store) = controlled_fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let db = crate::Database::new(&net, &store, &vidx);
        let q = UotsQuery::with_options(
            (0..4u32).map(NodeId).collect(),
            KeywordSet::from_ids([KeywordId(1)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.1).unwrap(),
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let d = Planner::new().decide(&db, &q);
        assert_ne!(d.kind, AlgorithmKind::TextFirst);
        assert_eq!(d.stats.selectivity, 1.0);
    }
}
