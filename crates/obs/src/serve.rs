//! Live exposition and the one HTTP router: a dependency-free HTTP/1.1
//! server over `std::net::TcpListener` on plain OS threads — no async
//! runtime.
//!
//! A long-running ingest or query batch becomes inspectable *while it
//! runs*: start an [`AcceptLoop`] next to the work, hand it an
//! [`ObsState`] of the observability handles, and `curl` the process from
//! outside. A larger server (the query service) runs the same loop with
//! its own routes beside these.
//!
//! ## Endpoint contract
//!
//! | path | payload | source |
//! |------|---------|--------|
//! | `GET /metrics` | Prometheus text exposition 0.0.4 | [`MetricsRegistry::render_prometheus`] |
//! | `GET /status`  | JSON health document | the embedder's status closure ([`ObsState::new`]) |
//! | `GET /journal?n=K` | JSON lines, the `K` (default 128) most recent events | `EventJournal::export_jsonl` |
//! | `GET /traces`  | `{"stats":…,"exemplars":[…]}` JSON | `TailSampler::export_json` |
//! | `GET /` | plain-text index of the above | — |
//!
//! Every `/metrics` response is re-validated with
//! [`crate::validate_prometheus_text`] before it
//! leaves the process; a registry that somehow renders an invalid
//! exposition produces a 500, never a silently-malformed 200.
//!
//! Every other request goes to the embedder's routes, which return a
//! [`Response`]; one they do not know is a JSON 404, and a method other
//! than `GET` / `POST` (or any but `GET` on the paths above) a JSON 405.
//! The loop writes every response itself — route answers, refusals and
//! its own 4xx alike — so a response leaves the process in one place.
//!
//! The loop holds only cheap `Arc` clones of the handles: it never
//! blocks the instrumented hot path. One request per connection (every
//! response closes it and reads carry a timeout, so an idle peer cannot
//! starve others).

use crate::journal::EventJournal;
use crate::registry::{validate_prometheus_text, Counter, Gauge, Histogram, MetricsRegistry};
use crate::sampler::TailSampler;
use serde::Content;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What an [`AcceptLoop`] exposes: the registry at `/metrics`, the
/// journal at `/journal`, the sampler at `/traces` and the status
/// closure's document at `/status`. The loop's own series and events go
/// to the same registry and journal.
#[derive(Clone)]
pub struct ObsState {
    registry: MetricsRegistry,
    journal: EventJournal,
    sampler: TailSampler,
    status: Arc<dyn Fn() -> String + Send + Sync>,
}

impl ObsState {
    /// Serves the four handles. `status` must return a JSON document; it
    /// is called once per `/status` request, so it always reflects the
    /// live state.
    pub fn new(
        registry: MetricsRegistry,
        journal: EventJournal,
        sampler: TailSampler,
        status: impl Fn() -> String + Send + Sync + 'static,
    ) -> ObsState {
        ObsState {
            registry,
            journal,
            sampler,
            status: Arc::new(status),
        }
    }

    /// The registry served at `/metrics`, for the embedder's own series.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sampler served at `/traces`, for the embedder to feed.
    pub fn sampler(&self) -> &TailSampler {
        &self.sampler
    }

    /// The answer to an observability path, or `None` when `path` is not
    /// one.
    fn answer(&self, path: &str, req: &HttpRequest) -> Option<Response> {
        Some(match path {
            "/metrics" => {
                let text = self.registry.render_prometheus();
                match validate_prometheus_text(&text) {
                    Ok(_) => Response::text(200, "text/plain; version=0.0.4; charset=utf-8", text),
                    Err(e) => Response::text(
                        500,
                        "text/plain",
                        format!("registry rendered an invalid exposition: {e}\n"),
                    ),
                }
            }
            "/status" => Response::json(200, (self.status)()),
            "/journal" => {
                let n = req.query_param("n").and_then(|v| v.parse::<usize>().ok());
                let n = n.unwrap_or(DEFAULT_JOURNAL_TAIL);
                Response::text(200, "application/x-ndjson", self.journal.export_jsonl(n))
            }
            "/traces" => Response::json(200, self.sampler.export_json()),
            "/" => Response::text(
                200,
                "text/plain",
                "uots observability endpoints:\n\
                 /metrics  Prometheus text exposition\n\
                 /status   health and progress (JSON)\n\
                 /journal?n=K  recent operational events (JSON lines)\n\
                 /traces   slow-query exemplars (JSON)\n"
                    .to_string(),
            ),
            _ => return None,
        })
    }
}

/// The paths [`ObsState`] answers; they take `GET` only.
const OBS_PATHS: [&str; 5] = ["/metrics", "/status", "/journal", "/traces", "/"];

/// Default `/journal` tail length when `?n=` is absent.
const DEFAULT_JOURNAL_TAIL: usize = 128;

/// One HTTP response — status code, content type and body — as a route
/// returns it. Only the accept loop writes it to the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    code: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    /// A JSON document answered with `code`.
    pub fn json(code: u16, body: String) -> Response {
        Response::text(code, "application/json", body)
    }

    /// `{"error": msg}` answered with `code`.
    pub fn error(code: u16, msg: &str) -> Response {
        let error = Content::Map(vec![("error".to_string(), Content::Str(msg.to_string()))]);
        let body = serde_json::to_string(&error).expect("error body renders");
        Response::json(code, body)
    }

    fn text(code: u16, content_type: &'static str, body: String) -> Response {
        Response {
            code,
            content_type,
            body,
        }
    }
}

/// Stop flag and wake of an [`AcceptLoop`], handed to every route call
/// (`POST /admin/shutdown` stops the loop it arrived on).
#[derive(Debug, Clone)]
pub struct Stopper {
    addr: SocketAddr,
    workers: usize,
    stop: Arc<AtomicBool>,
}

impl Stopper {
    /// `true` once [`stop`](Self::stop) ran.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the flag and self-connects once per worker: a worker blocked
    /// in `accept()` sees the flag only when `accept` returns, and exits
    /// whatever it returned — a poke or a real client.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        (0..self.workers).for_each(|_| self.poke());
    }

    fn poke(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
    }
}

/// What the workers of one loop share.
struct Worker<R> {
    routes: R,
    obs: ObsState,
    stopper: Stopper,
    requests: Counter,
    errors: Counter,
    busy: Gauge,
    panics: Counter,
    latency_us: Histogram,
}

/// The one accept loop and router: `workers` threads blocked in
/// `accept()` on clones of one **blocking** listener — an idle server
/// burns nothing and a connection is picked up the moment it lands; there
/// is no poll interval for a request to wait out. Each request is read
/// with a bounded reader that refuses what it cannot frame (400, or 413
/// past [`MAX_BODY_BYTES`]), routed (see the module docs) and answered;
/// the embedder's routes run under `catch_unwind`: a panic costs its
/// connection, never a worker. Dropping the loop
/// [`shutdown`](Self::shutdown)s it.
#[derive(Debug)]
pub struct AcceptLoop {
    stopper: Stopper,
    workers: Vec<JoinHandle<()>>,
}

impl AcceptLoop {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// starts `workers` (≥ 1) threads named `<name>-<i>` serving `obs` and
    /// `routes` — a closure answering the requests the loop does not
    /// (`None`: no such route). The loop's own series (`uots_serve_*`,
    /// below) and its `serve` / `handler_panicked` events go to the
    /// registry and journal of `obs`. Fails when the listener cannot be
    /// bound or cloned, or a worker not spawned.
    pub fn serve(
        addr: &str,
        workers: usize,
        name: &str,
        obs: &ObsState,
        routes: impl Fn(&HttpRequest, &Stopper) -> Option<Response> + Send + Sync + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let listener = TcpListener::bind(addr)?;
        let stopper = Stopper {
            addr: listener.local_addr()?,
            workers: workers.max(1),
            stop: Arc::default(),
        };
        let r = obs.registry();
        r.gauge("uots_serve_http_workers", "HTTP workers of the loop")
            .set(stopper.workers as i64);
        let worker = Arc::new(Worker {
            routes,
            obs: obs.clone(),
            stopper: stopper.clone(),
            requests: r.counter("uots_serve_requests_total", "HTTP requests accepted"),
            errors: r.counter("uots_serve_errors_total", "Requests answered 4xx"),
            busy: r.gauge("uots_serve_http_workers_busy", "HTTP workers in a request"),
            panics: r.counter("uots_serve_worker_panics_total", "Handler panics caught"),
            latency_us: r.histogram("uots_serve_request_microseconds", "Request service time"),
        });
        // filled in place: an early `?` drops (stops) the workers started
        let mut accept = AcceptLoop {
            stopper,
            workers: Vec::new(),
        };
        for i in 0..accept.stopper.workers {
            let (listener, worker) = (listener.try_clone()?, Arc::clone(&worker));
            let thread = std::thread::Builder::new().name(format!("{name}-{i}"));
            let handle = thread.spawn(move || worker.run(&listener))?;
            accept.workers.push(handle);
        }
        Ok(accept)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.stopper.addr
    }

    /// Blocks until every worker has exited — after some route called
    /// [`Stopper::stop`].
    pub fn join(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Stops and joins every worker, releasing the port. A poke can be
    /// lost (full backlog) and a worker inside a route needs none, so
    /// each is poked again until it is gone. Idempotent; runs on drop.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return; // already joined: the port may be someone else's by now
        }
        self.stopper.stop();
        for h in self.workers.drain(..) {
            while !h.is_finished() {
                std::thread::park_timeout(Duration::from_millis(5));
                self.stopper.poke();
            }
            let _ = h.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<R: Fn(&HttpRequest, &Stopper) -> Option<Response>> Worker<R> {
    fn run(&self, listener: &TcpListener) {
        while !self.stopper.is_stopped() {
            let conn = listener.accept();
            if self.stopper.is_stopped() {
                return;
            }
            let Ok((mut stream, _)) = conn else {
                std::thread::yield_now(); // e.g. EMFILE: nothing to answer on
                continue;
            };
            let start = Instant::now();
            self.requests.inc();
            self.busy.inc();
            // `None`: the peer stalled or left, or a route panicked
            let response = match read_request(&mut stream) {
                Ok(req) => self.route(&req),
                Err(refusal) => refusal,
            };
            if let Some(response) = response {
                if (400..500).contains(&response.code) && response.code != 429 {
                    self.errors.inc(); // a 429 is a shed, counted by whoever shed it
                }
                let _ = respond(&mut stream, &response);
            }
            self.busy.dec();
            let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.latency_us.record(micros);
        }
    }

    fn route(&self, req: &HttpRequest) -> Option<Response> {
        let (method, path) = (req.method.as_str(), req.path.as_str());
        match method {
            "GET" => {
                if let Some(response) = self.obs.answer(path, req) {
                    return Some(response);
                }
            }
            "POST" if !OBS_PATHS.contains(&path) => {}
            _ => {
                let msg = format!("method {method} not allowed on {path}");
                return Some(Response::error(405, &msg));
            }
        }
        let run = AssertUnwindSafe(|| (self.routes)(req, &self.stopper));
        let not_found = || Response::error(404, &format!("no such path: {path}"));
        match catch_unwind(run) {
            Ok(answer) => Some(answer.unwrap_or_else(not_found)),
            Err(_) => {
                self.panics.inc();
                let fields = [("method", req.method.clone()), ("path", req.path.clone())];
                self.obs.journal.error("serve", "handler_panicked", &fields);
                None
            }
        }
    }
}

/// Maximum accepted request body (requests are JSON documents of at most
/// a few hundred KiB even for large ingest batches).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP/1.1 request: start line plus the
/// `Content-Length`-framed body. What the routes of an [`AcceptLoop`] see.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), verbatim.
    pub method: String,
    /// Path component of the target (before any `?`).
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Request body (empty unless `Content-Length` announced one).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of query parameter `key` (`?key=value`), if present.
    pub(crate) fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref().and_then(|q| {
            q.split('&')
                .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        })
    }
}

/// Hard ceiling on how long one request may take to *arrive*. The
/// per-read timeout resets on every chunk, so a peer trickling one byte
/// every 1.9 s could otherwise hold a serving thread indefinitely (the
/// classic slow-loris gap); this deadline bounds the whole read.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Reads one request from `stream` with bounded sizes and timeouts: the
/// head is capped at 8 KiB, the body at [`MAX_BODY_BYTES`], each read
/// carries a 2-second timeout, and the request as a whole must arrive
/// within [`REQUEST_DEADLINE`] — a peer trickling bytes cannot wedge the
/// serving thread.
///
/// A request it cannot frame is refused with the response to answer: a
/// 400 for a malformed start line, an oversized head, a `Content-Length`
/// that is not a decimal count or disagrees with another, any
/// `Transfer-Encoding` (no chunked body is decoded) and a body that ends
/// before its declared length; a 413 for a declared length past
/// [`MAX_BODY_BYTES`]. `Err(None)` is a peer that stalled, left or
/// missed the deadline: there is nobody to answer.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, Option<Response>> {
    let refuse = |code, msg: &str| Some(Response::error(code, msg));
    let io = |_| None; // nothing to answer on
    let timeout = Some(Duration::from_secs(2));
    stream.set_read_timeout(timeout).map_err(io)?;
    stream.set_write_timeout(timeout).map_err(io)?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= 8192 {
            return Err(refuse(400, "request head exceeds 8 KiB"));
        }
        if Instant::now() >= deadline {
            return Err(None);
        }
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            break buf.len();
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let mut start = lines.next().unwrap_or("").split_whitespace();
    let (method, target) = match (start.next(), start.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(refuse(400, "malformed start line")),
    };
    let mut content_length = None;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(refuse(400, "Transfer-Encoding is not supported"));
        }
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let digits = value.bytes().all(|b| b.is_ascii_digit()); // no sign
        let Some(n) = value.parse::<usize>().ok().filter(|_| digits) else {
            return Err(refuse(400, &format!("bad Content-Length `{value}`")));
        };
        if content_length.is_some_and(|m| m != n) {
            return Err(refuse(400, "conflicting Content-Length headers"));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(refuse(413, "request body too large"));
    }
    // any bytes past the head terminator are the body prefix
    let mut body = buf[head_end.min(buf.len())..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(None);
        }
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            let got = body.len();
            let msg = format!("request body ended after {got} of {content_length} bytes");
            return Err(refuse(400, &msg));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(HttpRequest {
        method,
        path,
        query,
        body,
    })
}

/// Writes `response` as one `Connection: close` HTTP/1.1 response.
fn respond(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let reason = match response.code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    // head and body leave in one write: two would be two segments, and
    // two wake-ups of a client blocked in `read_to_end`
    let (code, content_type, body) = (response.code, response.content_type, &response.body);
    let mut out = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Severity;
    use std::net::Shutdown;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Sends `raw`, half-closes when asked, and returns (status code,
    /// body) of the answer.
    fn exchange(addr: SocketAddr, raw: &[u8], half_close: bool) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // a lost worker must fail the test, not hang it
        let patience = Duration::from_secs(20);
        stream.set_read_timeout(Some(patience)).unwrap();
        stream.write_all(raw).unwrap();
        if half_close {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let code: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    /// Minimal blocking HTTP GET against the test server; returns
    /// (status code, body).
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        exchange(addr, request.as_bytes(), false)
    }

    fn detached() -> ObsState {
        let (registry, journal) = (MetricsRegistry::new(), EventJournal::default());
        ObsState::new(registry, journal, TailSampler::default(), || "{}".into())
    }

    /// The `--obs-listen` side server: one worker, no routes of its own.
    fn obs_loop(state: &ObsState) -> AcceptLoop {
        let no_routes = |_: &HttpRequest, _: &Stopper| None;
        AcceptLoop::serve("127.0.0.1:0", 1, "uots-obs-test", state, no_routes).expect("bind")
    }

    fn full_state() -> (ObsState, MetricsRegistry, EventJournal, TailSampler) {
        let registry = MetricsRegistry::new();
        registry.counter("uots_test_total", "Test counter").add(7);
        registry
            .histogram("uots_test_us", "Test histogram")
            .record(42);
        let journal = EventJournal::new(64);
        journal.record(
            Severity::Warn,
            "wal",
            "segment_sealed",
            &[("segment", "wal-3".to_string())],
        );
        let sampler = TailSampler::new(8);
        sampler.observe("probe", 10, true, false, None);
        let state = ObsState::new(registry.clone(), journal.clone(), sampler.clone(), || {
            r#"{"state":"healthy","next_lsn":4}"#.to_string()
        });
        (state, registry, journal, sampler)
    }

    #[test]
    fn serves_all_endpoints_with_valid_payloads() {
        let (state, _r, journal, _s) = full_state();
        let server = obs_loop(&state);
        let addr = server.local_addr();

        let (code, body) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        validate_prometheus_text(&body).expect("served exposition validates");
        assert!(body.contains("uots_test_total"));

        let (code, body) = http_get(addr, "/status");
        assert_eq!(code, 200);
        assert!(body.contains("\"healthy\""));

        let (code, body) = http_get(addr, "/journal?n=10");
        assert_eq!(code, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"segment_sealed\""));

        // n= bounds the tail
        journal.record(Severity::Info, "epoch", "published", &[]);
        let (_, body) = http_get(addr, "/journal?n=1");
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"published\""));

        let (code, body) = http_get(addr, "/traces");
        assert_eq!(code, 200);
        assert!(body.contains("\"kept_best_effort\""));
        assert!(body.contains("\"exemplars\""));

        let (code, body) = http_get(addr, "/");
        assert_eq!(code, 200);
        assert!(body.contains("/metrics"));
    }

    #[test]
    fn unknown_paths_and_wrong_methods_are_json_4xx() {
        let (state, registry, ..) = full_state();
        let server = obs_loop(&state);
        let addr = server.local_addr();
        let cases = [
            ("GET /nope", 404),
            ("POST /nope", 404),
            ("POST /metrics", 405),
            ("PUT /status", 405),
            ("DELETE /nope", 405),
        ];
        for (start, want) in cases {
            let (code, body) =
                exchange(addr, format!("{start} HTTP/1.1\r\n\r\n").as_bytes(), false);
            assert_eq!(code, want, "{start}");
            assert!(body.starts_with(r#"{"error":"#), "{start}: {body}");
        }
        let errors = registry.snapshot().counter("uots_serve_errors_total", &[]);
        assert_eq!(errors, Some(cases.len() as u64));
    }

    /// What the reader cannot frame is refused with a JSON 400 before any
    /// route runs, and counted once as an error.
    #[test]
    fn unframeable_requests_are_refused_before_the_routes() {
        let (state, registry, ..) = full_state();
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        let routes = move |_: &HttpRequest, _: &Stopper| {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(Response::json(200, "{}".into()))
        };
        let server = AcceptLoop::serve("127.0.0.1:0", 1, "uots-test", &state, routes);
        let server = server.expect("bind");
        let addr = server.local_addr();
        let body = format!(
            r#"{{"locations":[0],"keywords":[1],"k":3,"pad":"{}"}}"#,
            "x".repeat(39)
        );
        assert_eq!(body.len(), 86);
        let post =
            |headers: &str, body: &str| format!("POST /echo HTTP/1.1\r\n{headers}\r\n{body}");
        let cases = [
            (
                "unparsable length",
                post("Content-Length: abc\r\n", &body),
                false,
            ),
            (
                "negative length",
                post("Content-Length: -5\r\n", &body),
                false,
            ),
            (
                "a 0 before the real length",
                post("Content-Length: 0\r\nContent-Length: 86\r\n", &body),
                false,
            ),
            (
                "chunked",
                post("Transfer-Encoding: chunked\r\n", "2\r\n{}\r\n0\r\n\r\n"),
                false,
            ),
            (
                "short body",
                post("Content-Length: 500\r\n", &body[..31]),
                true,
            ),
        ];
        for (what, raw, half_close) in &cases {
            let (code, reply) = exchange(addr, raw.as_bytes(), *half_close);
            assert_eq!(code, 400, "{what}: {reply}");
            let error: Content = serde_json::from_str(&reply).expect("a JSON body");
            assert!(error.get("error").is_some(), "{what}: {reply}");
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no route ran");
        let errors = registry.snapshot().counter("uots_serve_errors_total", &[]);
        assert_eq!(errors, Some(cases.len() as u64));

        // the same body framed correctly (two agreeing lengths included)
        let raw = post("Content-Length: 86\r\nContent-Length: 86\r\n", &body);
        assert_eq!(exchange(addr, raw.as_bytes(), false).0, 200);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_releases_the_port_and_is_idempotent() {
        let (state, ..) = full_state();
        let mut server = obs_loop(&state);
        let addr = server.local_addr();
        assert_eq!(http_get(addr, "/metrics").0, 200);
        server.shutdown();
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // the OS may accept briefly during teardown; a rebind
                // proves the listener is gone
                TcpListener::bind(addr).is_ok()
            },
            "port must be released after shutdown"
        );
    }

    /// A two-worker loop. `/meet` requests complete only in pairs — proof
    /// that two workers are alive; `/boom` panics; `/hold` reports on the
    /// returned receiver that it is inside the route and stays there
    /// until the returned sender releases it.
    fn test_loop(state: &ObsState) -> (AcceptLoop, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let meet = std::sync::Barrier::new(2);
        let (entered, entered_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let release_rx = std::sync::Mutex::new(release_rx);
        let routes = move |req: &HttpRequest, _: &Stopper| {
            match req.path.as_str() {
                "/boom" => panic!("handler bug (the test expects it)"),
                "/meet" => drop(meet.wait()),
                _ => {
                    entered.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
            }
            Some(Response::text(200, "text/plain", "done\n".into()))
        };
        let server = AcceptLoop::serve("127.0.0.1:0", 2, "uots-test", state, routes);
        (server.expect("bind"), entered_rx, release)
    }

    fn meet_twice(addr: SocketAddr) {
        let other = std::thread::spawn(move || http_get(addr, "/meet").0);
        assert_eq!(http_get(addr, "/meet").0, 200);
        assert_eq!(other.join().expect("second client"), 200);
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_a_worker() {
        let (state, registry, journal, _s) = full_state();
        let (server, ..) = test_loop(&state);
        let addr = server.local_addr();
        // more panics than there are workers to lose
        for _ in 0..5 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "GET /boom HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            assert!(
                raw.is_empty(),
                "the connection is dropped unanswered: {raw}"
            );
        }
        meet_twice(addr);
        let snapshot = registry.snapshot();
        let counter = |name| snapshot.counter(name, &[]);
        assert_eq!(counter("uots_serve_worker_panics_total"), Some(5));
        assert_eq!(counter("uots_serve_requests_total"), Some(7));
        assert_eq!(snapshot.gauge("uots_serve_http_workers_busy", &[]), Some(0));
        assert_eq!(snapshot.gauge("uots_serve_http_workers", &[]), Some(2));
        let events = journal.export_jsonl(16);
        assert_eq!(events.matches(r#""name":"handler_panicked""#).count(), 5);
        assert!(
            events.contains("/boom") && events.contains("GET"),
            "{events}"
        );
    }

    #[test]
    fn shutdown_joins_an_idle_loop_within_a_second() {
        let (mut server, ..) = test_loop(&detached());
        let addr = server.local_addr();
        // every worker has served once and is back in `accept()`
        meet_twice(addr);
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        TcpListener::bind(addr).expect("the port is released");
    }

    /// A worker inside a route when the stop comes finishes its request,
    /// sees the flag and leaves; the poke meant for it is left over.
    #[test]
    fn shutdown_waits_for_a_busy_worker_and_its_answer() {
        let (mut server, entered, release) = test_loop(&detached());
        let addr = server.local_addr();
        let held = std::thread::spawn(move || http_get(addr, "/hold").0);
        entered.recv().expect("the route is running");
        let stopper = server.stopper.clone();
        let stopping = std::thread::spawn(move || server.shutdown());
        while !stopper.is_stopped() {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        stopping.join().expect("shutdown returns");
        assert_eq!(
            held.join().expect("client"),
            200,
            "in-flight work is answered"
        );
    }

    #[test]
    fn metrics_reflect_live_mutation_between_scrapes() {
        let (state, registry, ..) = full_state();
        let c = registry.counter("uots_live_total", "Live counter");
        let server = obs_loop(&state);
        let addr = server.local_addr();
        c.add(1);
        let (_, first) = http_get(addr, "/metrics");
        assert!(first.contains("uots_live_total 1"));
        c.add(41);
        let (_, second) = http_get(addr, "/metrics");
        assert!(second.contains("uots_live_total 42"));
    }
}
