//! The UOTS query service: an HTTP front-end over epoch-pinned snapshots.
//!
//! [`QueryService`] layers four POST endpoints on the dependency-free
//! HTTP plumbing of [`uots_obs::serve`] (its [`AcceptLoop`] of workers
//! blocked in `accept()`, its wire format and `Connection: close`) and
//! reuses the whole observability surface (`/metrics`, `/status`,
//! `/journal`, `/traces`) verbatim via [`uots_obs::dispatch_obs`]:
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
//! The service always answers from a sharded cluster — volatile
//! ([`ShardedCluster`]) or WAL-backed ([`ShardedDurable`]) — and the
//! unsharded server is the cluster with one shard, not a second code
//! path: a one-shard cut hands the query to its lone shard untouched
//! (see [`ClusterSnapshot::search_ctx`]). Responses therefore have one
//! shape at every `N`: the scalar `epoch` (the maximum per-shard epoch)
//! beside the per-shard `epochs`, `shards_cut`, and per-shard plans.
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
//! The same rings govern `/join` (probe-level budget, subset-certified)
//! and oversized bodies are cut off at [`uots_obs::MAX_BODY_BYTES`] with
//! `413`.
//!
//! ## Planning
//!
//! Each batch is executed by [`Planner`] — the adaptive per-query
//! algorithm dispatch of [`uots_core::planner`] — unless the operator
//! forced an algorithm (`--force-algorithm`, [`ServiceConfig::force`])
//! or the request asked for one (`"algorithm": "expansion"`; the
//! operator's force wins). The response's `planned` array reports, per
//! query, `{"shards": [{algorithm, reason}, …]}` — the decision each
//! shard took (planner statistics are per-shard by design), recomputed
//! against the pinned cut, so clients can see *why* an algorithm ran.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Content, Serialize};
use uots_core::parallel::{self, BatchOptions, BatchPolicy};
use uots_core::planner::{AlgorithmKind, Planner};
use uots_core::shard::{ClusterSnapshot, CutReader, ShardedCluster};
use uots_core::{
    CancellationToken, CoreError, ExecutionBudget, QueryOptions, RunControl, SearchContext,
    UotsQuery, Weights,
};
use uots_index::{TimestampIndex, VertexInvertedIndex};
use uots_join::{ts_join_with, JoinConfig, JoinError, JoinResult};
use uots_network::NodeId;
use uots_obs::serve::{AcceptLoop, Stopper};
use uots_obs::{dispatch_obs, respond, Counter, HttpRequest, MetricsRegistry, ObsState};
use uots_text::{KeywordId, KeywordSet};
use uots_trajectory::{Trajectory, TrajectoryId, TrajectoryStore};

use crate::cluster::ShardedDurable;
use crate::durable::{check_insert, DurableError};

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
    /// Operator-forced algorithm (`--force-algorithm`); overrides both
    /// the planner and any per-request `"algorithm"` field.
    pub force: Option<AlgorithmKind>,
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
            force: None,
        }
    }
}

/// Service metric handles (all registered on the shared registry, so
/// `/metrics` exports them alongside the engine's and the accept loop's
/// per-connection series).
struct ServiceMetrics {
    errors: Counter,
    shed: Counter,
    degraded: Counter,
}

impl ServiceMetrics {
    fn new(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            errors: registry.counter("uots_serve_errors_total", "Requests answered 4xx"),
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

/// Shared state behind every worker thread.
struct Shared {
    /// The coordinator `/ingest` writes through — a cluster of `N ≥ 1`
    /// shards, volatile or WAL-backed — one request at a time. Reads
    /// never come here: they pin `cut`.
    writer: Mutex<Box<dyn Coordinator + Send>>,
    /// The coordinator's last completely published cut; every request
    /// pins it once (see the module docs).
    cut: CutReader,
    cfg: ServiceConfig,
    obs: ObsState,
    metrics: ServiceMetrics,
    ctx: SearchContext,
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
    /// Starts the service over a volatile [`ShardedCluster`]: `/search`
    /// and `/topk` walk the shards under a carried top-k floor (one shard:
    /// the plain search), `/ingest` routes through the coordinator (global
    /// ids, no WAL), `/join` answers over the merged live cut. The
    /// service's own series go to the registry `obs` serves at `/metrics`
    /// (the one the accept loop counts into; detached when `obs` has none).
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start(
        addr: &str,
        cluster: Arc<ShardedCluster>,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        Self::start_inner(addr, cluster.cut(), Box::new(cluster), obs, cfg)
    }

    /// Starts the service over a [`ShardedDurable`] cluster: `/ingest`
    /// goes through each shard's WAL (acked writes survive crashes),
    /// reads are the same as on the volatile cluster. A degraded shard
    /// rejects its mutations while every other shard — and all reads —
    /// keep serving.
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start_durable(
        addr: &str,
        cluster: ShardedDurable,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        Self::start_inner(addr, cluster.cut(), Box::new(cluster), obs, cfg)
    }

    fn start_inner(
        addr: &str,
        cut: CutReader,
        writer: Box<dyn Coordinator + Send>,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let workers = cfg.http_threads;
        let shared = Arc::new(Shared {
            writer: Mutex::new(writer),
            cut,
            cfg,
            metrics: ServiceMetrics::new(&obs.registry()),
            ctx: SearchContext::new(),
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            obs,
        });
        let state = Arc::clone(&shared);
        let handler = move |stream: &mut TcpStream, req: &HttpRequest, stopper: &Stopper| {
            // an error here is the client gone mid-response: nothing to answer
            let _ = handle_connection(stream, req, &state, stopper);
        };
        let accept = AcceptLoop::serve(addr, workers, "uots-serve", &shared.obs, handler)?;
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

fn handle_connection(
    stream: &mut TcpStream,
    req: &HttpRequest,
    shared: &Arc<Shared>,
    stopper: &Stopper,
) -> io::Result<()> {
    match req.method.as_str() {
        "GET" => {
            if dispatch_obs(stream, req, &shared.obs)? {
                return Ok(());
            }
            match req.path.as_str() {
                "/" => respond(
                    stream,
                    200,
                    "text/plain",
                    "uots-serve: POST /search /topk /join /ingest /admin/shutdown; \
                     GET /metrics /status /journal /traces\n",
                ),
                _ => client_error(stream, shared, 404, &format!("no such path: {}", req.path)),
            }
        }
        "POST" => match req.path.as_str() {
            "/search" => handle_search(stream, req, shared, false),
            "/topk" => handle_search(stream, req, shared, true),
            "/join" => handle_join(stream, req, shared),
            "/ingest" => handle_ingest(stream, req, shared),
            "/admin/shutdown" => {
                stopper.stop();
                respond(stream, 200, "application/json", "{\"stopping\":true}\n")
            }
            _ => client_error(stream, shared, 404, &format!("no such path: {}", req.path)),
        },
        m => client_error(stream, shared, 405, &format!("method {m} not allowed")),
    }
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

/// Answers a client error (4xx other than the 429 sheds) and counts it.
fn client_error(stream: &mut TcpStream, shared: &Shared, code: u16, msg: &str) -> io::Result<()> {
    shared.metrics.errors.inc();
    json_error(stream, code, msg)
}

fn json_error(stream: &mut TcpStream, code: u16, msg: &str) -> io::Result<()> {
    let body = serde_json::to_string(&Content::Map(vec![(
        "error".to_string(),
        Content::Str(msg.to_string()),
    )]))
    .expect("error body renders");
    respond(stream, code, "application/json", &body)
}

// ---------- /search and /topk ----------

fn handle_search(
    stream: &mut TcpStream,
    req: &HttpRequest,
    shared: &Arc<Shared>,
    single: bool,
) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => return client_error(stream, shared, 400, &e),
    };
    let query_objects: Vec<&Content> = if single {
        vec![&body]
    } else {
        match body.get("queries") {
            Some(Content::Seq(items)) if !items.is_empty() => items.iter().collect(),
            _ => return client_error(stream, shared, 400, "`queries` must be a non-empty array"),
        }
    };
    let mut queries = Vec::with_capacity(query_objects.len());
    for (i, qc) in query_objects.iter().enumerate() {
        match parse_query(qc) {
            Ok(q) => queries.push(q),
            Err(e) => return client_error(stream, shared, 400, &format!("query {i}: {e}")),
        }
    }

    let tenant = field_str(&body, "tenant").unwrap_or("default");
    let (guard, degraded) = match shared.admit(tenant, queries.len()) {
        Ok(ok) => ok,
        Err(()) => {
            shared.metrics.shed.inc();
            return json_error(
                stream,
                429,
                &format!(
                    "overloaded: {} queries in flight (capacity {})",
                    shared.inflight.load(Ordering::SeqCst),
                    shared.cfg.max_inflight
                ),
            );
        }
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

    // Request-level algorithm override; the operator's force wins.
    let planner = match (shared.cfg.force, field_str(&body, "algorithm")) {
        (Some(kind), _) => Planner::forced(kind),
        (None, Some(name)) => match AlgorithmKind::parse(name) {
            Some(kind) => Planner::forced(kind),
            None => {
                drop(guard);
                return client_error(stream, shared, 400, &format!("unknown algorithm `{name}`"));
            }
        },
        (None, None) => Planner::new(),
    };

    let opts = BatchOptions {
        policy: BatchPolicy::Partial,
        deadline: None,
        max_batch: Some(shared.cfg.max_batch),
        threads: shared.cfg.batch_threads,
    };
    let token = CancellationToken::new();
    // Pin one consistent cut for the whole batch (the `Arc`s keep every
    // shard epoch alive while `/ingest` publishes). A query walks its
    // shards on one thread, so the batch spreads over the batch workers
    // query by query.
    let cut = shared.cut.get();
    let outcome = parallel::run_batch_cluster(&cut, &planner, &queries, &opts, &token, &shared.ctx);
    drop(guard);
    if let (Some(sampler), Ok(answers)) = (shared.obs.sampler(), &outcome) {
        // metadata only: what `/traces` keeps of a served query is its
        // shape, its engine runtime and its outcome
        for (q, answer) in queries.iter().zip(answers) {
            let (runtime, best_effort) = match answer {
                Ok(a) => (a.result.metrics.runtime, !a.result.completeness.is_exact()),
                Err(_) => (Duration::ZERO, false),
            };
            let latency_us = u64::try_from(runtime.as_micros()).unwrap_or(u64::MAX);
            sampler.observe(&q.summary(), latency_us, best_effort, answer.is_err(), None);
        }
    }

    let answers = match outcome {
        Ok(batch) => batch,
        Err(CoreError::Overloaded {
            submitted,
            capacity,
        }) => {
            shared.metrics.shed.inc();
            return json_error(
                stream,
                429,
                &format!("batch of {submitted} exceeds admission bound {capacity}"),
            );
        }
        Err(e) => return client_error(stream, shared, 400, &e.to_string()),
    };

    // Report the plan per query, recomputed against the pinned cut
    // (decide() is deterministic and cheap): the plan each shard chose —
    // planner statistics are per-shard by design.
    let planned: Vec<Content> = queries
        .iter()
        .map(|q| {
            let shards: Vec<Content> = (0..cut.num_shards())
                .map(|s| {
                    let d = planner.decide(&cut.shard(s).database(), q);
                    Content::Map(vec![
                        (
                            "algorithm".to_string(),
                            Content::Str(d.kind.name().to_string()),
                        ),
                        ("reason".to_string(), Content::Str(d.reason.to_string())),
                    ])
                })
                .collect();
            Content::Map(vec![("shards".to_string(), Content::Seq(shards))])
        })
        .collect();

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
    respond(stream, 200, "application/json", &body)
}

// ---------- /join ----------

fn handle_join(stream: &mut TcpStream, req: &HttpRequest, shared: &Arc<Shared>) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => return client_error(stream, shared, 400, &e),
    };
    let defaults = JoinConfig::default();
    let cfg = JoinConfig {
        theta: match field_f64(&body, "theta", defaults.theta) {
            Ok(v) => v,
            Err(e) => return client_error(stream, shared, 400, &e),
        },
        lambda: match field_f64(&body, "lambda", defaults.lambda) {
            Ok(v) => v,
            Err(e) => return client_error(stream, shared, 400, &e),
        },
        decay_km: field_f64(&body, "decay_km", defaults.decay_km).unwrap_or(defaults.decay_km),
        decay_s: field_f64(&body, "decay_s", defaults.decay_s).unwrap_or(defaults.decay_s),
        ..defaults
    };
    let tenant = field_str(&body, "tenant").unwrap_or("default");
    let cut = shared.cut.get();
    // A join is a whole-dataset scan; weigh it as one tenant-ring slot
    // per live trajectory probe, capped to keep the arithmetic sane.
    let weight = cut.num_live().min(shared.cfg.tenant_inflight);
    let (guard, degraded) = match shared.admit(tenant, weight.max(1)) {
        Ok(ok) => ok,
        Err(()) => {
            shared.metrics.shed.inc();
            return json_error(stream, 429, "overloaded: join shed by the inflight ring");
        }
    };
    let budget = if degraded {
        shared.metrics.degraded.inc();
        shared.cfg.degraded_budget
    } else {
        ExecutionBudget::UNLIMITED
    };

    let outcome = cluster_join(&cut, &cfg, shared.cfg.batch_threads, &budget);
    drop(guard);

    let join = match outcome {
        Ok(j) => j,
        Err(e) => return client_error(stream, shared, 400, &e.to_string()),
    };
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
    respond(stream, 200, "application/json", &body)
}

/// Runs the similarity self-join over a cluster cut and answers in
/// **global** ids. The network is shared by construction, so shard 0's
/// copy serves the scan. A one-shard cut *is* the merged live cut: its
/// store and live-built indexes are borrowed as they stand. More shards
/// are materialized into one compact store in ascending global id order
/// (so the mapping back is stable and `a < b` is preserved).
fn cluster_join(
    cut: &ClusterSnapshot,
    cfg: &JoinConfig,
    threads: usize,
    budget: &ExecutionBudget,
) -> Result<JoinResult, JoinError> {
    let join_over = |store: &TrajectoryStore,
                     vertex_index: &VertexInvertedIndex<TrajectoryId>,
                     ts_index: &TimestampIndex<TrajectoryId>,
                     global_of: &dyn Fn(TrajectoryId) -> TrajectoryId| {
        let mut join = ts_join_with(
            cut.shard(0).network(),
            store,
            vertex_index,
            ts_index,
            cfg,
            threads,
            budget,
            &RunControl::unbounded(),
            None,
        )?;
        for p in &mut join.pairs {
            p.a = global_of(p.a);
            p.b = global_of(p.b);
        }
        Ok(join)
    };
    if cut.num_shards() == 1 {
        let db = cut.shard(0).database();
        let ts_index = db
            .timestamp_index
            .expect("an epoch snapshot carries its timestamp index");
        return join_over(db.store, db.vertex_index, ts_index, &|local| {
            cut.global_of(0, local)
        });
    }
    let mut rows: Vec<(TrajectoryId, usize, TrajectoryId)> = Vec::new();
    for s in 0..cut.num_shards() {
        for local in cut.shard(s).live().iter_live() {
            rows.push((cut.global_of(s, local), s, local));
        }
    }
    rows.sort_unstable_by_key(|r| r.0 .0);
    let mut store = TrajectoryStore::new();
    let mut globals: Vec<TrajectoryId> = Vec::with_capacity(rows.len());
    for (g, s, local) in rows {
        store.push(cut.shard(s).store().get(local).clone());
        globals.push(g);
    }
    let vertex_index = store.build_vertex_index(cut.shard(0).network().num_nodes());
    let ts_index = store.build_timestamp_index();
    join_over(&store, &vertex_index, &ts_index, &|compact| {
        globals[compact.index()]
    })
}

// ---------- /ingest ----------

/// The first insert naming a vertex or keyword outside the pinned
/// network / vocabulary (every shard serves the same ones), as a
/// client-facing message.
fn out_of_range(inserts: &[Trajectory], cut: &ClusterSnapshot) -> Option<String> {
    let db = cut.shard(0).database();
    let vocab = db.keyword_index.map_or(usize::MAX, |k| k.vocab_len());
    inserts.iter().enumerate().find_map(|(i, t)| {
        let refused = check_insert(db.network, vocab, t).err()?;
        Some(format!("insert {i}: {refused}"))
    })
}

fn handle_ingest(
    stream: &mut TcpStream,
    req: &HttpRequest,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => return client_error(stream, shared, 400, &e),
    };
    let inserts: Vec<Trajectory> = match body.get("insert") {
        None | Some(Content::Null) => Vec::new(),
        Some(Content::Seq(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for (i, c) in items.iter().enumerate() {
                match <Trajectory as serde::Deserialize>::deserialize(c) {
                    Ok(t) => out.push(t),
                    Err(e) => {
                        return client_error(stream, shared, 400, &format!("insert {i}: {e}"))
                    }
                }
            }
            out
        }
        Some(_) => {
            return client_error(
                stream,
                shared,
                400,
                "`insert` must be an array of trajectories",
            )
        }
    };
    // Reject ids the served network / vocabulary does not have before
    // anything is logged: an out-of-range insert would panic the index
    // build at publish, and from the WAL again at every recovery.
    if let Some(e) = out_of_range(&inserts, &shared.cut.get()) {
        return client_error(stream, shared, 400, &e);
    }
    let retires: Vec<TrajectoryId> = match field_ids(&body, "retire") {
        Ok(ids) => ids.into_iter().map(TrajectoryId).collect(),
        Err(e) => return client_error(stream, shared, 400, &e),
    };
    let publish = !matches!(body.get("publish"), Some(Content::Bool(false)));

    // A poisoned lock: a handler panicked mid-batch and memory may trail
    // the log, so writes stop until a restart recovers from it. Reads go
    // on from the published cut.
    let applied = match shared.writer.lock() {
        Ok(mut writer) => apply_ingest(&mut **writer, &shared.cut, inserts, &retires, publish),
        Err(_) => Err("ingest disabled: an earlier /ingest panicked; restart".into()),
    };
    let (assigned, retired, epochs) = match applied {
        Ok(applied) => applied,
        Err(e) => return client_error(stream, shared, 400, &e),
    };
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
    respond(stream, 200, "application/json", &body)
}

/// The write quartet both coordinators expose under the same names. The
/// volatile cluster cannot fail; it reports in the durable one's terms.
trait Coordinator {
    fn contains(&self, id: TrajectoryId) -> bool;
    fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, DurableError>;
    fn retire(&mut self, id: TrajectoryId) -> Result<bool, DurableError>;
    fn publish_all(&mut self) -> Result<ClusterSnapshot, DurableError>;
}

impl Coordinator for Arc<ShardedCluster> {
    fn contains(&self, id: TrajectoryId) -> bool {
        ShardedCluster::contains(self, id)
    }
    fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, DurableError> {
        Ok(ShardedCluster::ingest(self, t))
    }
    fn retire(&mut self, id: TrajectoryId) -> Result<bool, DurableError> {
        Ok(ShardedCluster::retire(self, id))
    }
    fn publish_all(&mut self) -> Result<ClusterSnapshot, DurableError> {
        Ok(ShardedCluster::publish_all(self))
    }
}

impl Coordinator for ShardedDurable {
    fn contains(&self, id: TrajectoryId) -> bool {
        ShardedDurable::contains(self, id)
    }
    fn ingest(&mut self, t: Trajectory) -> Result<TrajectoryId, DurableError> {
        ShardedDurable::ingest(self, t)
    }
    fn retire(&mut self, id: TrajectoryId) -> Result<bool, DurableError> {
        ShardedDurable::retire(self, id)
    }
    fn publish_all(&mut self) -> Result<ClusterSnapshot, DurableError> {
        ShardedDurable::publish_all(self)
    }
}

/// The one `/ingest` body: every retire id must already be issued —
/// checked before anything is applied, since the volatile coordinator
/// panics on an unknown id and a durable one would have logged the
/// inserts by then. Returns the inserts' global ids, how many retires hit
/// a live trajectory, and the epochs of the cut the reply reports (fresh
/// when `publish`).
fn apply_ingest(
    cluster: &mut dyn Coordinator,
    published: &CutReader,
    inserts: Vec<Trajectory>,
    retires: &[TrajectoryId],
    publish: bool,
) -> Result<(Vec<u64>, u64, Vec<u64>), String> {
    if let Some(id) = retires.iter().find(|&&id| !cluster.contains(id)) {
        return Err(format!("unknown trajectory id {}", id.0));
    }
    let mut assigned = Vec::with_capacity(inserts.len());
    for t in inserts {
        let id = cluster.ingest(t).map_err(|e| e.to_string())?;
        assigned.push(u64::from(id.0));
    }
    let mut retired = 0u64;
    for &id in retires {
        retired += u64::from(cluster.retire(id).map_err(|e| e.to_string())?);
    }
    let epochs = match publish {
        true => cluster.publish_all().map_err(|e| e.to_string())?.epochs(),
        false => published.get().epochs(),
    };
    Ok((assigned, retired, epochs))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cluster =
            ShardedDurable::create(network, &ds.store, &ds.vocab, &dir, 2, config, None, None)
                .unwrap();
        let obs = ObsState::new().with_registry(MetricsRegistry::new());
        let cfg = ServiceConfig::default();
        let service = QueryService::start_durable("127.0.0.1:0", cluster, obs, cfg).expect("bind");
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
        let cluster = ShardedCluster::new(
            Arc::new(ds.network.clone()),
            &ds.store,
            ds.vocab.len(),
            1,
            uots_core::Partitioner::Hash,
        );
        let obs = ObsState::new().with_registry(MetricsRegistry::new());
        QueryService::start("127.0.0.1:0", Arc::new(cluster), obs, cfg).expect("bind")
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
