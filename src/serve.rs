//! The UOTS query service: an HTTP front-end over epoch-pinned snapshots.
//!
//! [`QueryService`] hands its POST routes to the one dependency-free HTTP
//! router of [`uots_obs::serve`]: its [`AcceptLoop`] of workers blocked
//! in `accept()` answers the observability surface (`/metrics`,
//! `/status`, `/journal`, `/traces`, `/`), unknown paths (404) and wrong
//! methods (405) itself, and writes every response — the routes below
//! only return [`Response`] values:
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /search`  | `{queries: [...], tenant?, algorithm?}` | per-query results, epoch-pinned |
//! | `POST /topk`    | one query object | single result |
//! | `POST /join`    | `{theta?, lambda?, ...}` | similarity self-join pairs |
//! | `POST /ingest`  | `{insert: [...], retire: [...], publish?}` | new epoch |
//! | `POST /admin/shutdown` | — | stops and wakes every worker, frees the port |
//!
//! ## Query shape
//!
//! A query is a JSON object `{"locations": [node ids], "keywords":
//! [keyword ids], "times": [seconds], "lambda": 0.5, "k": 1, "decay_km":
//! 1.0, "decay_s": 1800.0}` — everything but `locations` optional. Bodies
//! are parsed into the vendored serde [`Content`] tree and validated
//! through [`UotsQuery::with_options`], so the service enforces exactly
//! the engine's invariants (dedup, `MAX_LOCATIONS`, λ range, temporal
//! consistency) and malformed requests answer `400` with the engine's
//! own error text.
//!
//! ## One backend: a cluster of `N ≥ 1` shards
//!
//! The service always answers from the one coordinator, a [`Cluster`] of
//! shard units — volatile ([`uots_core::ShardedCluster`]) or WAL-backed
//! ([`crate::cluster::ShardedDurable`]) — and the unsharded server is
//! the cluster with one shard, not a second code path: every query is one
//! run over all shards of the cut, and a one-shard cut is that run over
//! one part (see [`ClusterSnapshot::search_ctx`]); `/join` likewise runs
//! the TS-join once over the cut's [`ClusterSnapshot::view`], reading
//! every shard in place, in global ids. `/ingest` hands its body
//! to the coordinator's [`Cluster::apply`] as one batch, whatever its shard
//! unit: a durable shard logs its part of the body as one WAL record, so a
//! crash keeps all of a shard's part or none of it. Responses therefore
//! have one shape at every `N`: the scalar `epoch` (the maximum per-shard
//! epoch) beside the per-shard `epochs`, `shards_cut`, and per-shard plans.
//!
//! ## Epoch pinning
//!
//! Every request pins one consistent cut up front — the coordinator's
//! [`CutReader`], a read-lock and an `Arc` clone, never the writer's lock —
//! and the whole batch runs against it through
//! [`parallel::run_batch_cluster`], so results are attributable to one
//! set of `epochs` (returned in the response) while `/ingest` keeps
//! publishing: a reader sees the cut before a publish or the cut after
//! it, never the per-shard swaps in between, and waits for neither.
//!
//! ## Overload: degrade, then shed — never hang
//!
//! Two nested admission rings, both sized in *queries* (not requests):
//!
//! 1. **Per-tenant soft ring** (`tenant_inflight`): a tenant exceeding
//!    its inflight allowance keeps getting answers, but its queries run
//!    under the degraded [`ExecutionBudget`] — the engine returns the
//!    current top-k tagged [`uots_core::Completeness::BestEffort`] with a certified
//!    `bound_gap`. HTTP 200, `"degraded": true`.
//! 2. **Global hard ring** (`max_inflight`): beyond it the request is
//!    shed immediately with `429 Too Many Requests` and a JSON body
//!    naming both numbers. The server never queues unboundedly and never
//!    answers 5xx under load.
//!
//! The same rings govern `/join` (probe-level budget, subset-certified).
//! Before any route runs, the router cuts oversized bodies off at
//! [`uots_obs::serve::MAX_BODY_BYTES`] with `413` and refuses a body it cannot
//! frame (a bad or conflicting `Content-Length`, any `Transfer-Encoding`,
//! a body shorter than declared) with `400`.
//!
//! ## Algorithm
//!
//! Every query runs [`AlgorithmKind::Expansion`] — the paper's expansion
//! search under the heuristic scheduler — unless the request's
//! `"algorithm"` field names another kind (`"algorithm": "brute-force"`);
//! an unknown name is a `400` before admission. All four kinds return the
//! same answers, so the field changes cost, never results. The response's
//! `planned` array reports, per query, `{"shards": [{algorithm, reason},
//! …]}`: the kind that ran over the cut, listed once per shard, with
//! `reason` `"default"` or `"forced"` (the request named it).

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Content, Serialize};
use uots_core::parallel::{self, BatchOptions, BatchPolicy};
use uots_core::planner::AlgorithmKind;
use uots_core::shard::{Cluster, ClusterSnapshot, CutReader, Shard};
use uots_core::{
    CancellationToken, CoreError, ExecutionBudget, Mutation, QueryOptions, RunControl, UotsQuery,
    Weights,
};
use uots_join::{ts_join_with, JoinConfig};
use uots_network::NodeId;
use uots_obs::{
    AcceptLoop, Counter, HttpRequest, MetricsRegistry, ObsState, Response, Stopper, TailSampler,
};
use uots_text::{KeywordId, KeywordSet};
use uots_trajectory::codec::check_ids;
use uots_trajectory::{Trajectory, TrajectoryId};

/// How the service admits, degrades and sheds work.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// HTTP worker threads (each blocks in `accept()` on the one listener).
    /// Default: one per core the process may run on, at least 2. A `/topk`
    /// is short and CPU-bound, so more workers than cores serve no more of
    /// them — the kernel wakes blocked accepters FIFO, and a surplus
    /// worker wakes on the CPU it last ran on, beside a running request,
    /// while another core idles (DESIGN §13.3). The floor of 2 keeps one
    /// silent peer or one `fsync` from holding the only worker. Raise it
    /// when peers are slow or idle: each holds a worker for up to the 2 s
    /// read timeout.
    pub http_threads: usize,
    /// Rayon threads per search batch.
    pub batch_threads: usize,
    /// Admission bound: requests carrying more queries than this are
    /// rejected by the batch executor with `429`.
    pub max_batch: usize,
    /// Global hard ring: total queries in flight before shedding.
    pub max_inflight: usize,
    /// Per-tenant soft ring: queries in flight per tenant before the
    /// degraded budget kicks in.
    pub tenant_inflight: usize,
    /// The budget applied to degraded queries (tightened axis-wise
    /// against whatever the query asked for).
    pub degraded_budget: ExecutionBudget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            http_threads: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
            batch_threads: 0,
            max_batch: 1024,
            max_inflight: 4096,
            tenant_inflight: 64,
            degraded_budget: ExecutionBudget::default()
                .with_deadline_ms(50)
                .with_max_visited(512)
                .with_max_settled(20_000),
        }
    }
}

/// Service metric handles (all registered on the shared registry, so
/// `/metrics` exports them alongside the engine's and the accept loop's
/// per-connection series, `uots_serve_errors_total` among them).
struct ServiceMetrics {
    shed: Counter,
    degraded: Counter,
}

impl ServiceMetrics {
    fn new(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            shed: registry.counter(
                "uots_serve_shed_total",
                "Requests shed by the global inflight ring (429)",
            ),
            degraded: registry.counter(
                "uots_serve_degraded_total",
                "Requests degraded to a best-effort budget by the tenant ring",
            ),
        }
    }
}

/// The scalar epoch of a cut: the maximum per-shard epoch.
fn max_epoch(epochs: &[u64]) -> u64 {
    epochs.iter().copied().max().unwrap_or(0)
}

/// The `epoch` and `epochs` fields every data-plane response carries.
fn epoch_fields(epochs: &[u64]) -> [(String, Content); 2] {
    [
        ("epoch".to_string(), Content::U64(max_epoch(epochs))),
        (
            "epochs".to_string(),
            Content::Seq(epochs.iter().copied().map(Content::U64).collect()),
        ),
    ]
}

/// What `/ingest` reports: the inserts' global ids, how many retires hit
/// a live trajectory, and the epochs of the cut the reply names.
type Applied = (Vec<u64>, u64, Vec<u64>);

/// `/ingest`'s write path: the coordinator, whatever its shard unit,
/// inside [`apply_ingest`] — so the handlers are not generic over it.
type Writer =
    Box<dyn FnMut(Vec<Trajectory>, Vec<TrajectoryId>, bool) -> Result<Applied, String> + Send>;

/// Shared state behind every worker thread.
struct Shared {
    /// The coordinator `/ingest` writes through — a cluster of `N ≥ 1`
    /// shards, volatile or WAL-backed — one request at a time. Reads
    /// never come here: they pin `cut`.
    writer: Mutex<Writer>,
    /// The coordinator's last completely published cut; every request
    /// pins it once (see the module docs).
    cut: CutReader,
    cfg: ServiceConfig,
    /// What `/traces` keeps of the served queries.
    sampler: TailSampler,
    metrics: ServiceMetrics,
    inflight: AtomicUsize,
    /// Queries in flight per tenant. An entry lives exactly as long as its
    /// count is non-zero, so the map is bounded by the requests in flight,
    /// not by the tenant names clients have ever sent.
    tenants: Mutex<HashMap<String, usize>>,
}

impl Shared {
    /// Reserves `n` query slots. `Err(())` means the global hard ring is
    /// full and the request must be shed; `Ok((guard, degraded))` carries
    /// whether the tenant crossed its soft ring.
    fn admit<'a>(&'a self, tenant: &'a str, n: usize) -> Result<(AdmissionGuard<'a>, bool), ()> {
        let prev = self.inflight.fetch_add(n, Ordering::SeqCst);
        if prev + n > self.cfg.max_inflight {
            self.inflight.fetch_sub(n, Ordering::SeqCst);
            return Err(());
        }
        let mut map = self.tenants.lock().expect("tenant map poisoned");
        let count = map.entry(tenant.to_string()).or_default();
        *count += n;
        let degraded = *count > self.cfg.tenant_inflight;
        drop(map);
        let guard = AdmissionGuard {
            shared: self,
            tenant,
            n,
        };
        Ok((guard, degraded))
    }

    /// The 429 of a shed request, counted.
    fn shed(&self, msg: &str) -> Response {
        self.metrics.shed.inc();
        Response::error(429, msg)
    }
}

struct AdmissionGuard<'a> {
    shared: &'a Shared,
    tenant: &'a str,
    n: usize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(self.n, Ordering::SeqCst);
        // Decrement and remove under the one lock `admit` increments
        // under: a concurrent request of this tenant either still finds
        // the entry or starts a fresh one, never a counter already orphaned.
        // A poisoned map is still consistent (every update is one step).
        let mut map = self
            .shared
            .tenants
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(count) = map.get_mut(self.tenant) {
            *count -= self.n;
            if *count == 0 {
                map.remove(self.tenant);
            }
        }
    }
}

/// A running query service. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops every worker and releases the
/// port.
pub struct QueryService {
    accept: AcceptLoop,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("accept", &self.accept)
            .finish()
    }
}

impl QueryService {
    /// Starts the service over `cluster`: `/search` and `/topk` run each
    /// query once over all shards of the cut (one shard: the plain
    /// search), `/ingest` applies each body through the coordinator in
    /// global ids as one batch — one WAL record per shard it touches when
    /// the shard unit is durable, where a degraded shard rejects its
    /// mutations while every other shard and all reads keep serving — and
    /// `/join` joins the cut's view in place. The service's own series
    /// go to the registry `obs` serves at `/metrics` (the one the accept
    /// loop counts into), its served queries to the sampler of `obs`.
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start<S: Shard + 'static>(
        addr: &str,
        mut cluster: Cluster<S>,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let cut = cluster.cut();
        let writer: Writer = Box::new(move |inserts, retires, publish| {
            apply_ingest(&mut cluster, inserts, retires, publish)
        });
        let workers = cfg.http_threads;
        let shared = Arc::new(Shared {
            writer: Mutex::new(writer),
            cut,
            cfg,
            sampler: obs.sampler().clone(),
            metrics: ServiceMetrics::new(obs.registry()),
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
        });
        let state = Arc::clone(&shared);
        let routes = move |req: &HttpRequest, stopper: &Stopper| route(req, &state, stopper);
        let accept = AcceptLoop::serve(addr, workers, "uots-serve", &obs, routes)?;
        Ok(QueryService { accept, shared })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// The epoch of the currently published cut: the maximum per-shard
    /// epoch.
    pub fn current_epoch(&self) -> u64 {
        max_epoch(&self.shared.cut.get().epochs())
    }

    /// Blocks until `POST /admin/shutdown` has made every worker exit.
    pub fn join(&mut self) {
        self.accept.join();
    }

    /// Stops every worker and joins them (also on drop). Idempotent.
    pub fn shutdown(&mut self) {
        self.accept.shutdown();
    }
}

/// A route's answer: `Ok` the 200, `Err` the refusal (a JSON 4xx).
type Reply = Result<Response, Response>;

/// The service's routes, all `POST`; the accept loop answers everything
/// else (see the module docs).
fn route(req: &HttpRequest, shared: &Shared, stopper: &Stopper) -> Option<Response> {
    if req.method != "POST" {
        return None;
    }
    let reply = match req.path.as_str() {
        "/search" => handle_search(req, shared, false),
        "/topk" => handle_search(req, shared, true),
        "/join" => handle_join(req, shared),
        "/ingest" => handle_ingest(req, shared),
        "/admin/shutdown" => {
            stopper.stop();
            Ok(Response::json(200, "{\"stopping\":true}\n".to_string()))
        }
        _ => return None,
    };
    Some(reply.unwrap_or_else(|refused| refused))
}

/// A client error: a JSON 400 naming `e`.
fn bad_request(e: impl std::fmt::Display) -> Response {
    Response::error(400, &e.to_string())
}

// ---------- JSON helpers over the vendored `Content` tree ----------

fn body_content(req: &HttpRequest) -> Result<Content, String> {
    if req.body.is_empty() {
        return Ok(Content::Map(Vec::new()));
    }
    serde_json::from_slice::<Content>(&req.body).map_err(|e| e.to_string())
}

fn content_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::I64(v) => Some(v as f64),
        Content::U64(v) => Some(v as f64),
        Content::F64(v) => Some(v),
        _ => None,
    }
}

fn content_usize(c: &Content) -> Option<usize> {
    match *c {
        Content::I64(v) if v >= 0 => Some(v as usize),
        Content::U64(v) => usize::try_from(v).ok(),
        _ => None,
    }
}

fn field_f64(map: &Content, key: &str, default: f64) -> Result<f64, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(default),
        Some(c) => content_f64(c).ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn field_usize(map: &Content, key: &str, default: usize) -> Result<usize, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(default),
        Some(c) => {
            content_usize(c).ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        }
    }
}

fn field_str<'a>(map: &'a Content, key: &str) -> Option<&'a str> {
    match map.get(key) {
        Some(Content::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn field_ids(map: &Content, key: &str) -> Result<Vec<u32>, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(Vec::new()),
        Some(Content::Seq(items)) => items
            .iter()
            .map(|c| {
                content_usize(c)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("`{key}` entries must be u32 ids"))
            })
            .collect(),
        Some(_) => Err(format!("`{key}` must be an array of ids")),
    }
}

/// Parses one query object (see the module docs for the shape) and
/// validates it through the engine's own constructor.
fn parse_query(c: &Content) -> Result<UotsQuery, String> {
    let locations: Vec<NodeId> = field_ids(c, "locations")?.into_iter().map(NodeId).collect();
    let keywords = KeywordSet::from_ids(field_ids(c, "keywords")?.into_iter().map(KeywordId));
    let times = match c.get("times") {
        None | Some(Content::Null) => Vec::new(),
        Some(Content::Seq(items)) => items
            .iter()
            .map(|t| content_f64(t).ok_or_else(|| "`times` entries must be numbers".to_string()))
            .collect::<Result<Vec<f64>, String>>()?,
        Some(_) => return Err("`times` must be an array of seconds".to_string()),
    };
    let lambda = field_f64(c, "lambda", 0.5)?;
    let weights = Weights::lambda(lambda).map_err(|e| e.to_string())?;
    let options = QueryOptions {
        weights,
        k: field_usize(c, "k", 1)?,
        decay_km: field_f64(c, "decay_km", 1.0)?,
        decay_s: field_f64(c, "decay_s", 1_800.0)?,
        ..QueryOptions::default()
    };
    UotsQuery::with_options(locations, keywords, times, options).map_err(|e| e.to_string())
}

/// Axis-wise minimum of a query's own budget and the degraded cap.
fn tighten(own: ExecutionBudget, cap: ExecutionBudget) -> ExecutionBudget {
    fn min_opt<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }
    ExecutionBudget {
        max_wall: min_opt(own.max_wall, cap.max_wall),
        max_visited: min_opt(own.max_visited, cap.max_visited),
        max_settled: min_opt(own.max_settled, cap.max_settled),
    }
}

// ---------- /search and /topk ----------

fn handle_search(req: &HttpRequest, shared: &Shared, single: bool) -> Reply {
    let body = body_content(req).map_err(bad_request)?;
    let query_objects: Vec<&Content> = if single {
        vec![&body]
    } else {
        match body.get("queries") {
            Some(Content::Seq(items)) if !items.is_empty() => items.iter().collect(),
            _ => return Err(bad_request("`queries` must be a non-empty array")),
        }
    };
    let mut queries = query_objects
        .iter()
        .enumerate()
        .map(|(i, qc)| parse_query(qc).map_err(|e| bad_request(format!("query {i}: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let (algorithm, reason) = match field_str(&body, "algorithm") {
        None => (AlgorithmKind::Expansion, "default"),
        Some(name) => match AlgorithmKind::parse(name) {
            Some(kind) => (kind, "forced"),
            None => return Err(bad_request(format!("unknown algorithm `{name}`"))),
        },
    };

    let tenant = field_str(&body, "tenant").unwrap_or("default");
    let Ok((guard, degraded)) = shared.admit(tenant, queries.len()) else {
        let inflight = shared.inflight.load(Ordering::SeqCst);
        let capacity = shared.cfg.max_inflight;
        let msg = format!("overloaded: {inflight} queries in flight (capacity {capacity})");
        return Err(shared.shed(&msg));
    };
    if degraded {
        shared.metrics.degraded.inc();
        let cap = shared.cfg.degraded_budget;
        for q in &mut queries {
            let mut opts = q.options().clone();
            opts.budget = tighten(opts.budget, cap);
            *q = q
                .reoptioned(opts)
                .expect("re-optioning an already-validated query");
        }
    }

    let opts = BatchOptions {
        policy: BatchPolicy::Partial,
        deadline: None,
        max_batch: Some(shared.cfg.max_batch),
        threads: shared.cfg.batch_threads,
    };
    let token = CancellationToken::new();
    // Pin one consistent cut for the whole batch (the `Arc`s keep every
    // shard epoch alive while `/ingest` publishes). A query runs over all
    // its shards on one thread, so the batch spreads over the batch
    // workers query by query.
    let cut = shared.cut.get();
    let outcome = parallel::run_batch_cluster(&cut, &algorithm, &queries, &opts, &token);
    drop(guard);
    if let Ok(answers) = &outcome {
        // metadata only: what `/traces` keeps of a served query is its
        // shape, its engine runtime and its outcome
        for (q, answer) in queries.iter().zip(answers) {
            let (runtime, best_effort) = match answer {
                Ok(a) => (a.result.metrics.runtime, !a.result.completeness.is_exact()),
                Err(_) => (Duration::ZERO, false),
            };
            let latency_us = u64::try_from(runtime.as_micros()).unwrap_or(u64::MAX);
            let errored = answer.is_err();
            shared
                .sampler
                .observe(&q.summary(), latency_us, best_effort, errored, None);
        }
    }

    let answers = match outcome {
        Ok(batch) => batch,
        Err(CoreError::Overloaded {
            submitted,
            capacity,
        }) => {
            let msg = format!("batch of {submitted} exceeds admission bound {capacity}");
            return Err(shared.shed(&msg));
        }
        Err(e) => return Err(bad_request(e)),
    };

    // The kind that ran, listed once per shard of the cut.
    let plan = Content::Map(vec![
        (
            "algorithm".to_string(),
            Content::Str(algorithm.name().to_string()),
        ),
        ("reason".to_string(), Content::Str(reason.to_string())),
    ]);
    let shards = Content::Map(vec![(
        "shards".to_string(),
        Content::Seq(vec![plan; cut.num_shards()]),
    )]);
    let planned = vec![shards; queries.len()];

    let shards_cut: u64 = answers.iter().flatten().map(|a| a.shards_cut as u64).sum();
    let rendered: Vec<Content> = answers
        .iter()
        .map(|r| match r {
            Ok(a) => a.result.serialize(),
            Err(e) => Content::Map(vec![("error".to_string(), Content::Str(e.to_string()))]),
        })
        .collect();
    let mut top = Vec::from(epoch_fields(&cut.epochs()));
    top.extend([
        ("degraded".to_string(), Content::Bool(degraded)),
        ("planned".to_string(), Content::Seq(planned)),
        ("shards_cut".to_string(), Content::U64(shards_cut)),
    ]);
    if single {
        top.push((
            "result".to_string(),
            rendered.into_iter().next().unwrap_or(Content::Null),
        ));
    } else {
        top.push(("results".to_string(), Content::Seq(rendered)));
    }
    let body = serde_json::to_string(&Content::Map(top)).expect("response renders");
    Ok(Response::json(200, body))
}

// ---------- /join ----------

fn handle_join(req: &HttpRequest, shared: &Shared) -> Reply {
    let body = body_content(req).map_err(bad_request)?;
    let defaults = JoinConfig::default();
    let cfg = JoinConfig {
        theta: field_f64(&body, "theta", defaults.theta).map_err(bad_request)?,
        lambda: field_f64(&body, "lambda", defaults.lambda).map_err(bad_request)?,
        decay_km: field_f64(&body, "decay_km", defaults.decay_km).map_err(bad_request)?,
        decay_s: field_f64(&body, "decay_s", defaults.decay_s).map_err(bad_request)?,
        ..defaults
    };
    let tenant = field_str(&body, "tenant").unwrap_or("default");
    let cut = shared.cut.get();
    // A join is a whole-dataset scan; weigh it as one tenant-ring slot
    // per live trajectory probe, capped to keep the arithmetic sane.
    let weight = cut.num_live().min(shared.cfg.tenant_inflight);
    let Ok((guard, degraded)) = shared.admit(tenant, weight.max(1)) else {
        return Err(shared.shed("overloaded: join shed by the inflight ring"));
    };
    let budget = if degraded {
        shared.metrics.degraded.inc();
        shared.cfg.degraded_budget
    } else {
        ExecutionBudget::UNLIMITED
    };

    // the join reads the cut in place, in global ids, at any shard count
    let threads = shared.cfg.batch_threads;
    let ctl = RunControl::unbounded();
    let outcome = ts_join_with(&cut.view(), &cfg, threads, &budget, &ctl);
    drop(guard);

    let join = outcome.map_err(bad_request)?;
    let pairs: Vec<Content> = join.pairs.iter().map(|p| p.serialize()).collect();
    let mut top = Vec::from(epoch_fields(&cut.epochs()));
    top.extend([
        ("degraded".to_string(), Content::Bool(degraded)),
        ("pairs".to_string(), Content::Seq(pairs)),
        (
            "visited_trajectories".to_string(),
            Content::U64(join.visited_trajectories as u64),
        ),
        ("completeness".to_string(), join.completeness.serialize()),
        (
            "runtime_ms".to_string(),
            Content::F64(join.runtime.as_secs_f64() * 1e3),
        ),
    ]);
    let body = serde_json::to_string(&Content::Map(top)).expect("join response renders");
    Ok(Response::json(200, body))
}

// ---------- /ingest ----------

/// The first insert naming a vertex or keyword outside the pinned
/// network / vocabulary (every shard serves the same ones), as a
/// client-facing message.
fn out_of_range(inserts: &[Trajectory], cut: &ClusterSnapshot) -> Option<String> {
    let shard = cut.shard(0);
    let (nodes, vocab) = (shard.network().num_nodes(), shard.vocab_len());
    inserts.iter().enumerate().find_map(|(i, t)| {
        let refused = check_ids(t, nodes, vocab).err()?;
        Some(format!("insert {i}: {refused}"))
    })
}

fn handle_ingest(req: &HttpRequest, shared: &Shared) -> Reply {
    let body = body_content(req).map_err(bad_request)?;
    let inserts: Vec<Trajectory> = match body.get("insert") {
        None | Some(Content::Null) => Vec::new(),
        Some(Content::Seq(items)) => items
            .iter()
            .enumerate()
            .map(|(i, c)| {
                <Trajectory as serde::Deserialize>::deserialize(c)
                    .map_err(|e| bad_request(format!("insert {i}: {e}")))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad_request("`insert` must be an array of trajectories")),
    };
    // Reject ids the served network / vocabulary does not have before
    // anything is logged: an out-of-range insert would panic the index
    // build at publish, and from the WAL again at every recovery.
    if let Some(e) = out_of_range(&inserts, &shared.cut.get()) {
        return Err(bad_request(e));
    }
    let retires = field_ids(&body, "retire").map_err(bad_request)?;
    let retires: Vec<TrajectoryId> = retires.into_iter().map(TrajectoryId).collect();
    let publish = !matches!(body.get("publish"), Some(Content::Bool(false)));

    // A poisoned lock: a handler panicked mid-batch and memory may trail
    // the log, so writes stop until a restart recovers from it. Reads go
    // on from the published cut.
    let applied = match shared.writer.lock() {
        Ok(mut writer) => writer(inserts, retires, publish),
        Err(_) => Err("ingest disabled: an earlier /ingest panicked; restart".into()),
    };
    let (assigned, retired, epochs) = applied.map_err(bad_request)?;
    let mut top = Vec::from(epoch_fields(&epochs));
    top.extend([
        (
            "inserted".to_string(),
            Content::Seq(assigned.into_iter().map(Content::U64).collect()),
        ),
        ("retired".to_string(), Content::U64(retired)),
        ("published".to_string(), Content::Bool(publish)),
    ]);
    let body = serde_json::to_string(&Content::Map(top)).expect("ingest response renders");
    Ok(Response::json(200, body))
}

/// The one `/ingest` body as one [`Cluster::apply`] batch — its inserts
/// in body order, then its retires — so a durable shard logs one WAL
/// record for its part of the body before applying any of it. A retire
/// of an id not issued refuses the whole body before any shard applies
/// anything; one of an id the body's own insert receives is fine. Returns
/// the inserts' global ids, how many retires hit a live trajectory (the
/// inserts less the pending live count's move), and the epochs of the cut
/// the reply reports (fresh when `publish`).
fn apply_ingest<S: Shard>(
    cluster: &mut Cluster<S>,
    inserts: Vec<Trajectory>,
    retires: Vec<TrajectoryId>,
    publish: bool,
) -> Result<Applied, String> {
    let batch = inserts
        .into_iter()
        .map(Mutation::Insert)
        .chain(retires.into_iter().map(Mutation::Retire))
        .collect();
    let live = cluster.num_live();
    let ids = cluster.apply(batch).map_err(|e| e.to_string())?;
    let retired = (live + ids.len() - cluster.num_live()) as u64;
    let assigned = ids.into_iter().map(|id| u64::from(id.0)).collect();
    let epochs = match publish {
        true => cluster.publish_all().map_err(|e| e.to_string())?.epochs(),
        false => cluster.snapshot().epochs(),
    };
    Ok((assigned, retired, epochs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use uots_obs::EventJournal;

    fn detached_obs() -> ObsState {
        let (registry, journal) = (MetricsRegistry::new(), EventJournal::default());
        ObsState::new(registry, journal, TailSampler::default(), || "{}".into())
    }

    #[test]
    fn query_parsing_validates_through_the_engine() {
        let c: Content =
            serde_json::from_str(r#"{"locations":[1,2],"keywords":[0],"lambda":0.3,"k":4}"#)
                .unwrap();
        let q = parse_query(&c).unwrap();
        assert_eq!(q.locations().len(), 2);
        assert_eq!(q.options().k, 4);
        assert!((q.options().weights.spatial - 0.3).abs() < 1e-12);

        // Engine invariants reach the client as parse errors.
        let bad: Content = serde_json::from_str(r#"{"locations":[],"keywords":[0]}"#).unwrap();
        assert!(parse_query(&bad).is_err());
        let bad_lambda: Content =
            serde_json::from_str(r#"{"locations":[1],"keywords":[],"lambda":1.5}"#).unwrap();
        assert!(parse_query(&bad_lambda).is_err());
    }

    /// A handler that panics inside `/ingest` poisons the durable writer's
    /// lock with memory possibly behind the log. From then on `/ingest`
    /// answers the documented JSON error — it neither hangs nor panics a
    /// second worker — and reads go on from the published cut.
    #[test]
    fn a_poisoned_writer_refuses_ingest_and_keeps_serving_reads() {
        use std::io::{Read, Write};
        let ds = uots_datagen::Dataset::build(&uots_datagen::DatasetConfig::small(40, 3)).unwrap();
        let dir = std::env::temp_dir().join(format!("uots_serve_poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let network = Arc::new(ds.network.clone());
        let config = uots_core::wal::WalConfig::default();
        let cluster = crate::cluster::ShardedDurable::create(
            network, &ds.store, &ds.vocab, &dir, 2, config, None, None,
        )
        .unwrap();
        let obs = detached_obs();
        let cfg = ServiceConfig::default();
        let service = QueryService::start("127.0.0.1:0", cluster.into(), obs, cfg).expect("bind");
        let post = |path: &str, body: &str| -> String {
            let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
            let len = body.len();
            write!(
                stream,
                "POST {path} HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}"
            )
            .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).expect("read response");
            raw
        };
        let retire = r#"{"retire":[0]}"#;
        assert!(post("/ingest", retire).starts_with("HTTP/1.1 200"));

        let shared = Arc::clone(&service.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.writer.lock().unwrap();
            panic!("mid-batch panic (the test expects it)");
        });
        assert!(poisoner.join().is_err());

        for _ in 0..6 {
            let reply = post("/ingest", retire);
            assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
            assert!(reply.contains(r#"{"error":"ingest disabled"#), "{reply}");
        }
        let reply = post("/topk", r#"{"locations":[0],"keywords":[],"k":1}"#);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains(r#""epochs":[1,1]"#), "{reply}");
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn volatile_service(cfg: ServiceConfig) -> QueryService {
        let ds = uots_datagen::Dataset::build(&uots_datagen::DatasetConfig::small(40, 3)).unwrap();
        let cluster = uots_core::ShardedCluster::new(
            Arc::new(ds.network.clone()),
            &ds.store,
            ds.vocab.len(),
            1,
            uots_core::Partitioner::Hash,
        );
        let obs = detached_obs();
        QueryService::start("127.0.0.1:0", cluster, obs, cfg).expect("bind")
    }

    /// The tenant map holds the tenants with queries in flight, not every
    /// tenant name a client ever sent.
    #[test]
    fn finished_requests_leave_no_tenant_behind() {
        use std::io::{Read, Write};
        let service = volatile_service(ServiceConfig::default());
        for i in 0..1_000 {
            let body = format!(r#"{{"locations":[0],"keywords":[],"tenant":"tenant-{i}"}}"#);
            let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
            let len = body.len();
            write!(
                stream,
                "POST /topk HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}"
            )
            .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).expect("read response");
            assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        }
        let tenants = service.shared.tenants.lock().unwrap();
        assert!(tenants.is_empty(), "{} tenants left", tenants.len());
    }

    #[test]
    fn overlapping_requests_of_one_tenant_share_one_count() {
        let service = volatile_service(ServiceConfig {
            tenant_inflight: 1,
            ..ServiceConfig::default()
        });
        let shared = &service.shared;
        let (first, degraded) = shared.admit("t", 1).unwrap();
        assert!(!degraded);
        let (second, degraded) = shared.admit("t", 1).unwrap();
        assert!(degraded, "the second overlapping query is over the ring");
        // the entry outlives the first guard: a third request still counts
        // on the second's slot
        drop(first);
        let (third, degraded) = shared.admit("t", 1).unwrap();
        assert!(degraded);
        drop((second, third));
        assert!(shared.tenants.lock().unwrap().is_empty());
        assert!(
            !shared.admit("t", 1).unwrap().1,
            "a fresh entry starts at 0"
        );
    }

    #[test]
    fn tighten_takes_the_axiswise_minimum() {
        let own = ExecutionBudget::default().with_max_visited(100);
        let cap = ExecutionBudget::default()
            .with_deadline_ms(50)
            .with_max_visited(512);
        let t = tighten(own, cap);
        assert_eq!(t.max_visited, Some(100));
        assert_eq!(t.max_wall, Some(Duration::from_millis(50)));
        assert_eq!(t.max_settled, None);
    }
}
