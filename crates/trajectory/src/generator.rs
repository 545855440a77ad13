//! Synthetic trip generation.
//!
//! Stands in for the paper's real taxi data (T-drive Beijing): trips are
//! shortest-path routes between *hotspot-biased* endpoints, subsampled into
//! sample points, timestamped with a rush-hour start-time mixture and a
//! per-trip speed, and tagged by the category model. The spatial skew
//! (hotspots), temporal skew (rush hours) and textual skew (Zipf categories)
//! are what make pruning behave as it does on real data.
//!
//! One seed gives one trip stream. [`TripGenerator::generate`] plans trips
//! on one thread (every RNG draw, in stream order) and routes them on every
//! core; its store equals that of planning and finishing one trip at a
//! time, byte for byte, at any core count.

use crate::tags::TagSampler;
use crate::{Sample, Trajectory, TrajectoryError, TrajectoryStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use uots_index::{GridIndex, DAY_SECONDS};
use uots_network::astar::{AStar, Route};
use uots_network::{NodeId, Point, RoadNetwork};
use uots_text::KeywordSet;

/// Configuration of the [`TripGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct TripGeneratorConfig {
    /// Number of trajectories to generate.
    pub num_trips: usize,
    /// Number of spatial hotspot centres (popular origins/destinations).
    pub hotspots: usize,
    /// Probability that a trip endpoint is drawn near a hotspot rather than
    /// uniformly.
    pub hotspot_prob: f64,
    /// Standard deviation (km) of the Gaussian scatter around a hotspot.
    pub hotspot_sigma_km: f64,
    /// Minimum network length (km) of an accepted trip.
    pub min_trip_km: f64,
    /// Keep every `sample_stride`-th route vertex as a sample point (first
    /// and last are always kept). `1` keeps the full route.
    pub sample_stride: usize,
    /// Mean travel speed in km/h.
    pub speed_kmh_mean: f64,
    /// Standard deviation of the travel speed in km/h.
    pub speed_kmh_std: f64,
    /// Inclusive range of tags per trip.
    pub min_tags: usize,
    /// See [`TripGeneratorConfig::min_tags`].
    pub max_tags: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TripGeneratorConfig {
    fn default() -> Self {
        TripGeneratorConfig {
            num_trips: 1000,
            hotspots: 8,
            hotspot_prob: 0.6,
            hotspot_sigma_km: 0.8,
            min_trip_km: 1.0,
            sample_stride: 3,
            speed_kmh_mean: 30.0,
            speed_kmh_std: 8.0,
            min_tags: 2,
            max_tags: 6,
            seed: 0x7219_0000,
        }
    }
}

impl TripGeneratorConfig {
    fn validate(&self) -> Result<(), TrajectoryError> {
        if self.num_trips == 0 {
            return Err(TrajectoryError::BadGeneratorConfig(
                "num_trips must be positive".into(),
            ));
        }
        if self.hotspots == 0 || !(0.0..=1.0).contains(&self.hotspot_prob) {
            return Err(TrajectoryError::BadGeneratorConfig(
                "need hotspots >= 1 and hotspot_prob in [0, 1]".into(),
            ));
        }
        if self.sample_stride == 0 {
            return Err(TrajectoryError::BadGeneratorConfig(
                "sample_stride must be >= 1".into(),
            ));
        }
        if self.speed_kmh_mean <= 0.0 || self.speed_kmh_mean.is_nan() || self.speed_kmh_std < 0.0 {
            return Err(TrajectoryError::BadGeneratorConfig(
                "speed must be positive".into(),
            ));
        }
        if self.min_tags > self.max_tags {
            return Err(TrajectoryError::BadGeneratorConfig(
                "min_tags must not exceed max_tags".into(),
            ));
        }
        Ok(())
    }

    /// Overrides the seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Standard normal draw via Box–Muller.
fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a trip start hour from the rush-hour mixture:
/// 35% N(8.5h, 1h), 35% N(18h, 1.5h), 30% uniform day.
fn start_time<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    let hours = if u < 0.35 {
        normal(rng, 8.5, 1.0)
    } else if u < 0.70 {
        normal(rng, 18.0, 1.5)
    } else {
        rng.gen::<f64>() * 19.0 + 4.0
    };
    (hours.clamp(0.0, 23.5)) * 3_600.0
}

/// Trips [`TripGenerator::generate`] plans before it finishes them: bounds
/// the memory that unfinished plans hold.
const WINDOW: usize = 4096;

/// Slack (km, scaled by `1 + |min_trip_km|`) by which the straight-line
/// lower bound must clear `min_trip_km` before a pair is accepted unrouted.
/// It absorbs the rounding of the bound and of A*'s summed path length,
/// both many orders of magnitude smaller.
const BOUND_MARGIN_KM: f64 = 1e-9;

/// The route of a trip as far as [`TripGenerator::plan`] took it.
enum Leg {
    /// Routed during planning (a short, undecided or fallback pair).
    Routed(Route),
    /// Accepted on the lower bound alone; routed by [`finish`].
    Deferred(NodeId, NodeId),
}

/// One trip with every RNG draw made, in the stream's order: everything
/// [`finish`] needs besides the network.
struct TripPlan {
    leg: Leg,
    speed_kmh: f64,
    /// Start time before the end-of-day clamp, which needs the distance.
    start: f64,
    keywords: KeywordSet,
}

/// Deterministic trip generator over one road network.
///
/// Each trip is *planned* on the generator's thread, which makes every RNG
/// draw, and then *finished* by `finish`, a pure function of the plan and
/// the network that routes a deferred pair and timestamps the samples.
/// The route only decides whether a candidate pair is accepted, and a pair
/// whose straight-line lower bound already clears `min_trip_km` is accepted
/// without routing, so finishing runs on every core while the output stays
/// byte-identical to routing every trip in turn.
pub struct TripGenerator<'a> {
    net: &'a RoadNetwork,
    grid: GridIndex,
    hotspot_centres: Vec<Point>,
    cfg: TripGeneratorConfig,
    rng: StdRng,
    astar: AStar<'a>,
    /// [`RoadNetwork::heuristic_scale`]: `scale × euclid(a, b)` never
    /// exceeds the network distance from `a` to `b`.
    scale: f64,
    /// Lower bound at which a pair is accepted unrouted; infinite on a
    /// disconnected network, where a pair may have no route at all.
    defer_km: f64,
}

impl<'a> TripGenerator<'a> {
    /// Creates a generator; builds a vertex grid index for endpoint
    /// snapping and selects hotspot centres.
    ///
    /// # Errors
    ///
    /// [`TrajectoryError::BadGeneratorConfig`] on invalid configuration or
    /// a network with fewer than two vertices (no trip has two endpoints).
    pub fn new(net: &'a RoadNetwork, cfg: TripGeneratorConfig) -> Result<Self, TrajectoryError> {
        cfg.validate()?;
        if net.num_nodes() < 2 {
            return Err(TrajectoryError::BadGeneratorConfig(format!(
                "network has {} vertices; trips need at least 2",
                net.num_nodes()
            )));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = GridIndex::build(net.points(), 8);
        let hotspot_centres = (0..cfg.hotspots)
            .map(|_| net.point(NodeId(rng.gen_range(0..net.num_nodes()) as u32)))
            .collect();
        let defer_km = if net.is_connected() {
            cfg.min_trip_km + BOUND_MARGIN_KM * (1.0 + cfg.min_trip_km.abs())
        } else {
            f64::INFINITY
        };
        Ok(TripGenerator {
            net,
            grid,
            hotspot_centres,
            cfg,
            rng,
            astar: AStar::new(net),
            scale: net.heuristic_scale(),
            defer_km,
        })
    }

    fn sample_endpoint(&mut self) -> NodeId {
        if self.rng.gen::<f64>() < self.cfg.hotspot_prob {
            let c = self.hotspot_centres[self.rng.gen_range(0..self.hotspot_centres.len())];
            let p = Point::new(
                normal(&mut self.rng, c.x, self.cfg.hotspot_sigma_km),
                normal(&mut self.rng, c.y, self.cfg.hotspot_sigma_km),
            );
            NodeId(self.grid.nearest(&p).0 as u32)
        } else {
            NodeId(self.rng.gen_range(0..self.net.num_nodes()) as u32)
        }
    }

    /// Draws endpoint pairs until one is accepted. A pair is accepted when
    /// its route meets `min_trip_km`; after 32 failures the length
    /// requirement is dropped so generation always terminates. Before
    /// attempt 32 a pair whose lower bound clears `min_trip_km` is accepted
    /// without routing: its route would meet the length anyway.
    fn plan_leg(&mut self) -> Leg {
        let mut longest_reject: Option<Route> = None;
        for attempt in 0..64 {
            let a = self.sample_endpoint();
            let b = self.sample_endpoint();
            if a == b {
                continue;
            }
            let bound = self.net.point(a).distance(&self.net.point(b)) * self.scale;
            if attempt < 32 && bound >= self.defer_km {
                return Leg::Deferred(a, b);
            }
            if let Some(route) = self.astar.route(a, b) {
                if route.distance >= self.cfg.min_trip_km || attempt >= 32 {
                    return Leg::Routed(route);
                }
                if longest_reject
                    .as_ref()
                    .is_none_or(|r| route.distance > r.distance)
                {
                    longest_reject = Some(route);
                }
            }
        }
        Leg::Routed(longest_reject.expect("connected network yields a route"))
    }

    /// Makes every RNG draw of the next trip, in the stream's order.
    fn plan(&mut self, tags: &TagSampler) -> TripPlan {
        let leg = self.plan_leg();
        let speed_kmh = normal(
            &mut self.rng,
            self.cfg.speed_kmh_mean,
            self.cfg.speed_kmh_std,
        )
        .clamp(8.0, 90.0);
        let start = start_time(&mut self.rng);
        let category = tags.sample_category(&mut self.rng);
        let count = self
            .rng
            .gen_range(self.cfg.min_tags..=self.cfg.max_tags.max(self.cfg.min_tags));
        let keywords = tags.sample_tags(category, count.max(1), &mut self.rng);
        TripPlan {
            leg,
            speed_kmh,
            start,
            keywords,
        }
    }

    /// Generates the configured number of trips into a fresh store, the
    /// same trips as planning and finishing them one at a time. Trips are
    /// planned here, 4096 at a time; each window is finished on every
    /// available core and pushed in order.
    pub fn generate(&mut self, tags: &TagSampler) -> TrajectoryStore {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut helpers: Vec<AStar<'a>> = (1..threads).map(|_| self.astar.clone()).collect();
        let mut store = TrajectoryStore::with_capacity(self.cfg.num_trips);
        let mut remaining = self.cfg.num_trips;
        while remaining > 0 {
            let window = remaining.min(WINDOW);
            remaining -= window;
            let plans: Vec<TripPlan> = (0..window).map(|_| self.plan(tags)).collect();
            let finished = finish_window(&self.cfg, &mut self.astar, &mut helpers, plans);
            for trajectory in finished {
                store.push(trajectory);
            }
        }
        store
    }
}

/// Plans per unit of work handed to a finishing thread: small enough that
/// the threads of a window end together, large enough that taking the next
/// block costs nothing beside routing it.
const BLOCK: usize = 32;

/// Finishes `plans` on this thread (with `astar`) and one scoped thread per
/// helper searcher, which take blocks of [`BLOCK`] plans as they go free.
/// Returns the trajectories in plan order.
fn finish_window<'a>(
    cfg: &TripGeneratorConfig,
    astar: &mut AStar<'a>,
    helpers: &mut [AStar<'a>],
    plans: Vec<TripPlan>,
) -> Vec<Trajectory> {
    let mut plans = plans.into_iter();
    let blocks = Mutex::new(
        std::iter::from_fn(move || {
            let block: Vec<TripPlan> = plans.by_ref().take(BLOCK).collect();
            (!block.is_empty()).then_some(block)
        })
        .enumerate(),
    );
    let work = |astar: &mut AStar<'a>| {
        let mut done = Vec::new();
        loop {
            let Some((i, block)) = blocks.lock().expect("no holder panics").next() else {
                return done;
            };
            let trips: Vec<Trajectory> = block
                .into_iter()
                .map(|plan| finish(cfg, astar, plan).0)
                .collect();
            done.push((i, trips));
        }
    };
    let mut done = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|helper| s.spawn(move || work(helper)))
            .collect();
        let mut done = work(astar);
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().flat_map(|(_, trips)| trips).collect()
}

/// Completes a plan: routes a deferred pair, subsamples the route, clamps
/// the start into the day and timestamps the samples. Returns the
/// trajectory and the full vertex route it was sampled from. A pure
/// function of the plan and the network, so any thread may run it.
///
/// # Panics
///
/// Panics if a deferred pair's route misses `min_trip_km`, which would
/// mean the lower bound was unsound and the trip stream had changed.
fn finish(
    cfg: &TripGeneratorConfig,
    astar: &mut AStar<'_>,
    plan: TripPlan,
) -> (Trajectory, Vec<NodeId>) {
    let Route {
        path: route,
        distance,
        cumulative,
    } = match plan.leg {
        Leg::Routed(route) => route,
        Leg::Deferred(a, b) => {
            let route = astar
                .route(a, b)
                .expect("a deferred pair lies on a connected network");
            assert!(
                route.distance >= cfg.min_trip_km,
                "lower bound accepted {a:?}→{b:?} at {} km < min_trip_km {}",
                route.distance,
                cfg.min_trip_km
            );
            route
        }
    };

    // subsample the route into sample points
    let mut picks: Vec<usize> = (0..route.len()).step_by(cfg.sample_stride).collect();
    if *picks.last().expect("route non-empty") != route.len() - 1 {
        picks.push(route.len() - 1);
    }

    // timestamps from the speed and the route's cumulative distance
    let duration_s = distance / plan.speed_kmh * 3_600.0;
    let mut start = plan.start;
    if start + duration_s > DAY_SECONDS {
        start = (DAY_SECONDS - duration_s).max(0.0);
    }

    let samples: Vec<Sample> = picks
        .iter()
        .map(|&i| {
            let frac = if distance > 0.0 {
                cumulative[i] / distance
            } else {
                0.0
            };
            Sample {
                node: route[i],
                time: (start + frac * duration_s).min(DAY_SECONDS),
            }
        })
        .collect();

    let trajectory =
        Trajectory::new(samples, plan.keywords).expect("generator output is valid by construction");
    (trajectory, route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::{TagModelConfig, TagSampler};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NetworkBuilder;

    /// Generates one trip (ground truth included): the next plan, finished
    /// on this thread — the sequential reference `generate` must match.
    fn generate_trip(g: &mut TripGenerator<'_>, tags: &TagSampler) -> GeneratedTrip {
        let plan = g.plan(tags);
        let (trajectory, route) = finish(&g.cfg, &mut g.astar, plan);
        GeneratedTrip { trajectory, route }
    }

    /// A generated trip together with its ground truth.
    struct GeneratedTrip {
        trajectory: Trajectory,
        route: Vec<NodeId>,
    }

    fn setup() -> (RoadNetwork, TagSampler) {
        let net = grid_city(&GridCityConfig::new(25, 25).with_seed(3)).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let (tags, _vocab) = TagSampler::synthetic(&TagModelConfig::default(), &mut rng);
        (net, tags)
    }

    #[test]
    fn generates_requested_count_of_valid_trips() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 50,
            ..Default::default()
        };
        let mut g = TripGenerator::new(&net, cfg).unwrap();
        let store = g.generate(&tags);
        assert_eq!(store.len(), 50);
        for (_, t) in store.iter() {
            assert!(t.len() >= 2);
            assert!(!t.keywords().is_empty());
            let (a, b) = t.time_range();
            assert!(a >= 0.0 && b <= DAY_SECONDS && a <= b);
        }
    }

    #[test]
    fn trips_are_deterministic_per_seed() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 10,
            ..Default::default()
        }
        .with_seed(77);
        let s1 = TripGenerator::new(&net, cfg.clone())
            .unwrap()
            .generate(&tags);
        let s2 = TripGenerator::new(&net, cfg).unwrap().generate(&tags);
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn route_is_network_adjacent_and_samples_subset_route() {
        let (net, tags) = setup();
        let mut g = TripGenerator::new(&net, TripGeneratorConfig::default()).unwrap();
        for _ in 0..10 {
            let trip = generate_trip(&mut g, &tags);
            for w in trip.route.windows(2) {
                assert!(net.neighbors(w[0]).any(|(u, _)| u == w[1]));
            }
            for s in trip.trajectory.samples() {
                assert!(trip.route.contains(&s.node));
            }
            // endpoints kept
            assert_eq!(trip.trajectory.samples()[0].node, trip.route[0]);
            assert_eq!(
                trip.trajectory.samples().last().unwrap().node,
                *trip.route.last().unwrap()
            );
        }
    }

    #[test]
    fn sample_stride_controls_density() {
        let (net, tags) = setup();
        let dense_cfg = TripGeneratorConfig {
            sample_stride: 1,
            min_trip_km: 3.0,
            ..Default::default()
        }
        .with_seed(5);
        let sparse_cfg = TripGeneratorConfig {
            sample_stride: 6,
            min_trip_km: 3.0,
            ..Default::default()
        }
        .with_seed(5);
        let mut dense = TripGenerator::new(&net, dense_cfg).unwrap();
        let mut sparse = TripGenerator::new(&net, sparse_cfg).unwrap();
        let dt = generate_trip(&mut dense, &tags);
        let st = generate_trip(&mut sparse, &tags);
        // identical seeds ⇒ identical routes; sparse keeps fewer samples
        assert_eq!(dt.route, st.route);
        assert!(st.trajectory.len() < dt.trajectory.len());
        assert_eq!(dt.trajectory.len(), dt.route.len());
    }

    #[test]
    fn timestamps_increase_along_route() {
        let (net, tags) = setup();
        let mut g = TripGenerator::new(
            &net,
            TripGeneratorConfig {
                min_trip_km: 2.0,
                ..Default::default()
            },
        )
        .unwrap();
        let trip = generate_trip(&mut g, &tags);
        let times: Vec<f64> = trip.trajectory.times().collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(trip.trajectory.duration() > 0.0);
    }

    #[test]
    fn hotspot_bias_concentrates_endpoints() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 200,
            hotspots: 2,
            hotspot_prob: 1.0,
            hotspot_sigma_km: 0.3,
            min_trip_km: 0.0,
            ..Default::default()
        }
        .with_seed(13);
        let mut g = TripGenerator::new(&net, cfg).unwrap();
        let store = g.generate(&tags);
        // endpoint vertices should be few distinct ones relative to trips
        let mut endpoints = std::collections::HashSet::new();
        for (_, t) in store.iter() {
            endpoints.insert(t.samples()[0].node);
            endpoints.insert(t.samples().last().unwrap().node);
        }
        assert!(
            endpoints.len() < 150,
            "hotspot endpoints too dispersed: {}",
            endpoints.len()
        );
    }

    #[test]
    fn config_validation() {
        let (net, _) = setup();
        let bad = TripGeneratorConfig {
            num_trips: 0,
            ..Default::default()
        };
        assert!(TripGenerator::new(&net, bad).is_err());
        let bad = TripGeneratorConfig {
            sample_stride: 0,
            ..Default::default()
        };
        assert!(TripGenerator::new(&net, bad).is_err());
        let bad = TripGeneratorConfig {
            min_tags: 5,
            max_tags: 2,
            ..Default::default()
        };
        assert!(TripGenerator::new(&net, bad).is_err());
    }

    /// Two disjoint `side × side` lattices, 0.5 km apart internally and
    /// 20 km apart from each other. `shortcut` weights every fifth edge at
    /// half its straight-line length, which pulls `heuristic_scale` below 1.
    fn lattices(components: usize, side: usize, shortcut: bool) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut edges = 0usize;
        for c in 0..components {
            let base = b.num_nodes() as u32;
            for i in 0..side * side {
                let (x, y) = ((i % side) as f64, (i / side) as f64);
                b.add_node(Point::new(20.0 * c as f64 + 0.5 * x, 0.5 * y));
            }
            for i in 0..side * side {
                for j in [i + 1, i + side] {
                    if (j == i + 1 && j % side == 0) || j >= side * side {
                        continue;
                    }
                    edges += 1;
                    let weight = (shortcut && edges.is_multiple_of(5)).then_some(0.25);
                    b.add_edge(NodeId(base + i as u32), NodeId(base + j as u32), weight)
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn tight_hotspots() -> TripGeneratorConfig {
        TripGeneratorConfig {
            num_trips: 60,
            hotspots: 1,
            hotspot_prob: 1.0,
            hotspot_sigma_km: 0.3,
            min_trip_km: 1.5,
            ..Default::default()
        }
        .with_seed(21)
    }

    /// The trips a `generate_trip` loop yields for `cfg`.
    fn trip_loop(
        net: &RoadNetwork,
        tags: &TagSampler,
        cfg: &TripGeneratorConfig,
    ) -> Vec<Trajectory> {
        let mut g = TripGenerator::new(net, cfg.clone()).unwrap();
        (0..cfg.num_trips)
            .map(|_| generate_trip(&mut g, tags).trajectory)
            .collect()
    }

    /// `generate` must store exactly the trips of a `generate_trip` loop.
    fn assert_generate_is_trip_loop(
        net: &RoadNetwork,
        tags: &TagSampler,
        cfg: TripGeneratorConfig,
    ) {
        let want = trip_loop(net, tags, &cfg);
        let store = TripGenerator::new(net, cfg).unwrap().generate(tags);
        assert_eq!(store.len(), want.len());
        for ((id, got), want) in store.iter().zip(&want) {
            assert_eq!(got, want, "trajectory {id:?} differs from the trip loop");
        }
    }

    /// How many of `cfg`'s trips the lower bound accepted unrouted.
    fn deferred(net: &RoadNetwork, tags: &TagSampler, cfg: &TripGeneratorConfig) -> usize {
        let mut g = TripGenerator::new(net, cfg.clone()).unwrap();
        (0..cfg.num_trips)
            .filter(|_| matches!(g.plan(tags).leg, Leg::Deferred(..)))
            .count()
    }

    #[test]
    fn generate_is_the_trip_loop_on_the_default_fixture() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 300,
            ..Default::default()
        };
        assert!(
            deferred(&net, &tags, &cfg) > 200,
            "the bound decides most pairs"
        );
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_when_the_bound_always_decides() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 200,
            min_trip_km: 0.0,
            ..Default::default()
        }
        .with_seed(4);
        assert_eq!(deferred(&net, &tags, &cfg), 200);
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_when_every_trip_falls_back() {
        // no route is this long: every trip is the attempt-32 pair
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 40,
            min_trip_km: 1_000.0,
            ..Default::default()
        }
        .with_seed(5);
        assert_eq!(deferred(&net, &tags, &cfg), 0);
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_under_tight_hotspots() {
        let (net, tags) = setup();
        let cfg = tight_hotspots();
        assert!(
            deferred(&net, &tags, &cfg) < cfg.num_trips / 2,
            "most pairs are routed while planning"
        );
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_on_a_disconnected_network() {
        let net = lattices(2, 12, false);
        assert!(!net.is_connected());
        let (_, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 150,
            min_trip_km: 2.0,
            ..Default::default()
        }
        .with_seed(6);
        assert_eq!(deferred(&net, &tags, &cfg), 0, "no pair skips routing");
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_with_shortcut_weights() {
        let net = lattices(1, 16, true);
        assert!(net.heuristic_scale() < 1.0);
        let (_, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: 150,
            min_trip_km: 1.5,
            ..Default::default()
        }
        .with_seed(8);
        assert!(deferred(&net, &tags, &cfg) > 0);
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn generate_is_the_trip_loop_across_a_partial_window() {
        let (net, tags) = setup();
        let cfg = TripGeneratorConfig {
            num_trips: WINDOW + BLOCK + 7,
            ..Default::default()
        }
        .with_seed(9);
        assert_generate_is_trip_loop(&net, &tags, cfg);
    }

    #[test]
    fn finishing_is_the_same_at_any_thread_count() {
        let (net, tags) = setup();
        for cfg in [
            TripGeneratorConfig {
                num_trips: 5 * BLOCK + 3,
                ..Default::default()
            },
            tight_hotspots(),
        ] {
            let want = trip_loop(&net, &tags, &cfg);
            for helpers in [0, 1, 3] {
                let mut g = TripGenerator::new(&net, cfg.clone()).unwrap();
                let plans = (0..cfg.num_trips).map(|_| g.plan(&tags)).collect();
                let mut extra: Vec<AStar<'_>> = (0..helpers).map(|_| g.astar.clone()).collect();
                let got = finish_window(&g.cfg, &mut g.astar, &mut extra, plans);
                assert_eq!(got, want, "{helpers} helper threads");
            }
        }
    }

    #[test]
    fn timestamps_follow_the_lightest_of_parallel_edges() {
        // a–m twice (2 km, then 1 km), m–c 1 km: the route is 2 km long
        // and m lies halfway along it
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let m = b.add_node(Point::new(0.5, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, m, Some(2.0)).unwrap();
        b.add_edge(a, m, Some(1.0)).unwrap();
        b.add_edge(m, c, Some(1.0)).unwrap();
        let net = b.build().unwrap();
        let cfg = TripGeneratorConfig {
            sample_stride: 1,
            ..Default::default()
        };
        let plan = TripPlan {
            leg: Leg::Deferred(a, c),
            speed_kmh: 30.0,
            start: 3_600.0,
            keywords: KeywordSet::from_ids([uots_text::KeywordId(1)]),
        };
        let (trajectory, route) = finish(&cfg, &mut AStar::new(&net), plan);
        assert_eq!(route, vec![a, m, c]);
        let times: Vec<f64> = trajectory.times().collect();
        // 2 km at 30 km/h: 240 s
        assert!((times[2] - times[0] - 240.0).abs() < 1e-9, "{times:?}");
        assert_eq!(
            times[1],
            times[0] + 0.5 * (times[2] - times[0]),
            "{times:?}"
        );
    }

    #[test]
    fn networks_below_two_vertices_are_refused() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::ORIGIN);
        let net = b.build().unwrap();
        assert!(matches!(
            TripGenerator::new(&net, TripGeneratorConfig::default()),
            Err(TrajectoryError::BadGeneratorConfig(_))
        ));
    }

    #[test]
    fn start_time_mixture_is_in_day_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5_000 {
            let t = start_time(&mut rng);
            assert!((0.0..=DAY_SECONDS).contains(&t));
        }
    }
}
