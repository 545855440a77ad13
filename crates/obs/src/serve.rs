//! Live exposition endpoint: a dependency-free HTTP/1.1 server over
//! `std::net::TcpListener` on a plain OS thread — no async runtime.
//!
//! A long-running ingest or query batch becomes inspectable *while it
//! runs*: start an [`ObsServer`] next to the work, hand it clones of the
//! observability handles, and `curl` the process from outside.
//!
//! ## Endpoint contract
//!
//! | path | payload | source |
//! |------|---------|--------|
//! | `GET /metrics` | Prometheus text exposition 0.0.4 | [`MetricsRegistry::render_prometheus`] |
//! | `GET /status`  | JSON health document | caller-installed provider ([`ObsState::with_status`]) |
//! | `GET /journal?n=K` | JSON lines, the `K` (default 128) most recent events | [`EventJournal::export_jsonl`] |
//! | `GET /traces`  | `{"stats":…,"exemplars":[…]}` JSON | [`TailSampler::export_json`] |
//! | `GET /` | plain-text index of the above | — |
//!
//! Every `/metrics` response is re-validated with
//! [`validate_prometheus_text`](crate::validate_prometheus_text) before it
//! leaves the process; a registry that somehow renders an invalid
//! exposition produces a 500, never a silently-malformed 200.
//!
//! The server holds only cheap `Arc` clones of the handles: it never
//! blocks the instrumented hot path, and components the caller did not
//! install answer 404. It is an [`AcceptLoop`] of one worker — the loop
//! the query service runs with `http_threads` of them: blocking
//! `accept()`, one request per connection (every response closes it and
//! reads carry a timeout, so an idle peer cannot starve others).

use crate::journal::EventJournal;
use crate::registry::{validate_prometheus_text, Counter, Gauge, Histogram, MetricsRegistry};
use crate::sampler::TailSampler;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Produces the `/status` JSON document on demand. Installed by the
/// embedder so the obs crate stays independent of the durable facade's
/// status types.
pub type StatusProvider = Arc<dyn Fn() -> String + Send + Sync>;

/// What an [`ObsServer`] exposes: any subset of the observability
/// handles. Missing components answer 404 on their endpoint.
#[derive(Clone, Default)]
pub struct ObsState {
    registry: Option<MetricsRegistry>,
    journal: Option<EventJournal>,
    sampler: Option<TailSampler>,
    status: Option<StatusProvider>,
}

impl std::fmt::Debug for ObsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsState")
            .field("registry", &self.registry.is_some())
            .field("journal", &self.journal.is_some())
            .field("sampler", &self.sampler.is_some())
            .field("status", &self.status.is_some())
            .finish()
    }
}

impl ObsState {
    /// An empty state; add components with the `with_*` builders.
    pub fn new() -> ObsState {
        ObsState::default()
    }

    /// Serves `registry` at `/metrics`.
    pub fn with_registry(mut self, registry: MetricsRegistry) -> ObsState {
        self.registry = Some(registry);
        self
    }

    /// Serves `journal` at `/journal`.
    pub fn with_journal(mut self, journal: EventJournal) -> ObsState {
        self.journal = Some(journal);
        self
    }

    /// Serves `sampler` at `/traces`.
    pub fn with_sampler(mut self, sampler: TailSampler) -> ObsState {
        self.sampler = Some(sampler);
        self
    }

    /// The registry served at `/metrics`, for the embedder's own series —
    /// a detached one when none is attached.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone().unwrap_or_default()
    }

    /// The sampler served at `/traces`, for the embedder to feed.
    pub fn sampler(&self) -> Option<&TailSampler> {
        self.sampler.as_ref()
    }

    /// Serves `provider()` at `/status`. The provider must return a JSON
    /// document; it is called once per request, so it always reflects the
    /// live state.
    pub fn with_status(
        mut self,
        provider: impl Fn() -> String + Send + Sync + 'static,
    ) -> ObsState {
        self.status = Some(Arc::new(provider));
        self
    }
}

/// Stop flag and wake of an [`AcceptLoop`], handed to every handler call
/// (`POST /admin/shutdown` stops the loop it arrived on).
#[derive(Debug, Clone)]
pub struct Stopper {
    addr: SocketAddr,
    workers: usize,
    stop: Arc<AtomicBool>,
}

impl Stopper {
    /// `true` once [`stop`](Self::stop) ran.
    pub fn is_stopped(&self) -> bool {
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
struct Worker<H> {
    handler: H,
    stopper: Stopper,
    journal: Option<EventJournal>,
    requests: Counter,
    errors: Counter,
    busy: Gauge,
    panics: Counter,
    latency_us: Histogram,
}

/// The one accept loop: `workers` threads blocked in `accept()` on clones
/// of one **blocking** listener — an idle server burns nothing and a
/// connection is picked up the moment it lands; there is no poll interval
/// for a request to wait out. Each request is read with [`read_request`]
/// (an unreadable one is answered 400 / 413 on the spot) and handled
/// under `catch_unwind`: a panic costs its connection, never a worker.
/// Dropping the loop [`shutdown`](Self::shutdown)s it.
#[derive(Debug)]
pub struct AcceptLoop {
    stopper: Stopper,
    workers: Vec<JoinHandle<()>>,
}

/// A running exposition server: an [`AcceptLoop`] of one worker that
/// serves an [`ObsState`] and nothing else.
pub type ObsServer = AcceptLoop;

impl AcceptLoop {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// starts the accept thread serving `state`.
    pub fn start(addr: &str, state: ObsState) -> std::io::Result<ObsServer> {
        let obs = state.clone();
        let handler = move |stream: &mut TcpStream, req: &HttpRequest, _: &Stopper| {
            // one bad peer must not take the endpoint down
            let _ = handle_obs(stream, req, &state);
        };
        AcceptLoop::serve(addr, 1, "uots-obs-serve", &obs, handler)
    }

    /// Binds `addr` and starts `workers` (≥ 1) threads named
    /// `<name>-<i>` running `handler`. The loop's own series
    /// (`uots_serve_*`, below) and its `serve` / `handler_panicked` events
    /// go to the registry and journal of `obs`. Fails when the listener
    /// cannot be bound or cloned, or a worker not spawned.
    pub fn serve(
        addr: &str,
        workers: usize,
        name: &str,
        obs: &ObsState,
        handler: impl Fn(&mut TcpStream, &HttpRequest, &Stopper) + Send + Sync + 'static,
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
            handler,
            stopper: stopper.clone(),
            journal: obs.journal.clone(),
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

    /// Blocks until every worker has exited — after some handler called
    /// [`Stopper::stop`].
    pub fn join(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Stops and joins every worker, releasing the port. A poke can be
    /// lost (full backlog) and a worker inside a handler needs none, so
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

impl<H: Fn(&mut TcpStream, &HttpRequest, &Stopper)> Worker<H> {
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
            match read_request(&mut stream) {
                Ok(req) => self.handle(&mut stream, &req),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // `read_request` refuses bodies past MAX_BODY_BYTES up front
                    let code = if e.to_string().contains("too large") {
                        413
                    } else {
                        400
                    };
                    self.errors.inc();
                    let body = format!("{{\"error\":\"{e}\"}}");
                    let _ = respond(&mut stream, code, "application/json", &body);
                }
                Err(_) => {} // the peer stalled or left: nothing to answer
            }
            self.busy.dec();
            let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.latency_us.record(micros);
        }
    }

    fn handle(&self, stream: &mut TcpStream, req: &HttpRequest) {
        let run = AssertUnwindSafe(|| (self.handler)(stream, req, &self.stopper));
        if catch_unwind(run).is_err() {
            self.panics.inc();
            if let Some(j) = &self.journal {
                let fields = [("method", req.method.clone()), ("path", req.path.clone())];
                j.error("serve", "handler_panicked", &fields);
            }
        }
    }
}

/// Maximum accepted request body (requests are JSON documents of at most
/// a few hundred KiB even for large ingest batches).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP/1.1 request: start line plus (for `POST`/`PUT`) the
/// `Content-Length`-framed body. Produced by [`read_request`]; shared by
/// the obs endpoint and the query service built on top of it.
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
    pub fn query_param(&self, key: &str) -> Option<&str> {
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
/// # Errors
///
/// I/O errors (including timeouts) from the underlying stream,
/// `TimedOut` when the overall deadline expires, or `InvalidData` for a
/// malformed start line / oversized body.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<HttpRequest> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= 8192 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head exceeds 8 KiB",
            ));
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request head did not arrive within the deadline",
            ));
        }
        let n = stream.read(&mut chunk)?;
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
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed start line",
            ))
        }
    };
    let content_length = lines
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .next()
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    // any bytes past the head terminator are the body prefix
    let mut body = buf[head_end.min(buf.len())..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request body did not arrive within the deadline",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
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

/// Serves the observability endpoints (`/metrics`, `/status`,
/// `/journal`, `/traces`) for an already-parsed `GET` request. Returns
/// `Ok(true)` when the path was one of them (a response has been
/// written), `Ok(false)` when the path is not an obs endpoint — the
/// embedder then routes it itself. Lets a larger server (the query
/// service) reuse the exposition surface verbatim.
///
/// # Errors
///
/// I/O errors writing the response.
pub fn dispatch_obs(
    stream: &mut TcpStream,
    req: &HttpRequest,
    state: &ObsState,
) -> std::io::Result<bool> {
    match req.path.as_str() {
        "/metrics" => match &state.registry {
            Some(r) => {
                let text = r.render_prometheus();
                match validate_prometheus_text(&text) {
                    Ok(_) => respond(
                        stream,
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        &text,
                    )?,
                    Err(e) => respond(
                        stream,
                        500,
                        "text/plain",
                        &format!("registry rendered an invalid exposition: {e}\n"),
                    )?,
                }
            }
            None => respond(stream, 404, "text/plain", "no metrics registry\n")?,
        },
        "/status" => match &state.status {
            Some(provider) => respond(stream, 200, "application/json", &provider())?,
            None => respond(stream, 404, "text/plain", "no status source\n")?,
        },
        "/journal" => match &state.journal {
            Some(j) => {
                let n = req.query_param("n").and_then(|v| v.parse::<usize>().ok());
                let n = n.unwrap_or(DEFAULT_JOURNAL_TAIL);
                respond(stream, 200, "application/x-ndjson", &j.export_jsonl(n))?;
            }
            None => respond(stream, 404, "text/plain", "no event journal\n")?,
        },
        "/traces" => match &state.sampler {
            Some(s) => respond(stream, 200, "application/json", &s.export_json())?,
            None => respond(stream, 404, "text/plain", "no tail sampler\n")?,
        },
        _ => return Ok(false),
    }
    Ok(true)
}

fn handle_obs(stream: &mut TcpStream, req: &HttpRequest, state: &ObsState) -> std::io::Result<()> {
    if req.method != "GET" {
        return respond(stream, 405, "text/plain", "only GET is supported\n");
    }
    if dispatch_obs(stream, req, state)? {
        return Ok(());
    }
    match req.path.as_str() {
        "/" => respond(
            stream,
            200,
            "text/plain",
            "uots observability endpoints:\n\
             /metrics  Prometheus text exposition\n\
             /status   durable ingest health (JSON)\n\
             /journal?n=K  recent operational events (JSON lines)\n\
             /traces   slow-query exemplars (JSON)\n",
        ),
        _ => respond(stream, 404, "text/plain", "unknown path\n"),
    }
}

/// Default `/journal` tail length when `?n=` is absent.
const DEFAULT_JOURNAL_TAIL: usize = 128;

/// Writes one `Connection: close` HTTP/1.1 response. Public so servers
/// layered over [`read_request`]/[`dispatch_obs`] (the query service)
/// answer with the exact same wire format.
///
/// # Errors
///
/// I/O errors writing to the stream.
pub fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
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
    use std::sync::mpsc;

    /// Minimal blocking HTTP GET against the test server; returns
    /// (status code, body).
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // a lost worker must fail the test, not hang it
        let patience = Duration::from_secs(20);
        stream.set_read_timeout(Some(patience)).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
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
        let state = ObsState::new()
            .with_registry(registry.clone())
            .with_journal(journal.clone())
            .with_sampler(sampler.clone())
            .with_status(|| r#"{"state":"healthy","next_lsn":4}"#.to_string());
        (state, registry, journal, sampler)
    }

    #[test]
    fn serves_all_endpoints_with_valid_payloads() {
        let (state, _r, journal, _s) = full_state();
        let server = ObsServer::start("127.0.0.1:0", state).expect("bind");
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
    fn missing_components_and_bad_requests_are_4xx() {
        let server = ObsServer::start("127.0.0.1:0", ObsState::new()).expect("bind");
        let addr = server.local_addr();
        for path in ["/metrics", "/status", "/journal", "/traces", "/nope"] {
            let (code, _) = http_get(addr, path);
            assert_eq!(code, 404, "{path}");
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn shutdown_releases_the_port_and_is_idempotent() {
        let (state, ..) = full_state();
        let mut server = ObsServer::start("127.0.0.1:0", state).expect("bind");
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
    /// returned receiver that it is inside the handler and stays there
    /// until the returned sender releases it.
    fn test_loop(state: &ObsState) -> (AcceptLoop, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let meet = std::sync::Barrier::new(2);
        let (entered, entered_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handler = move |stream: &mut TcpStream, req: &HttpRequest, _: &Stopper| {
            match req.path.as_str() {
                "/boom" => panic!("handler bug (the test expects it)"),
                "/meet" => drop(meet.wait()),
                _ => {
                    entered.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
            }
            let _ = respond(stream, 200, "text/plain", "done\n");
        };
        let server = AcceptLoop::serve("127.0.0.1:0", 2, "uots-test", state, handler);
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
        let (mut server, ..) = test_loop(&ObsState::new());
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

    /// A worker inside a handler when the stop comes finishes its request,
    /// sees the flag and leaves; the poke meant for it is left over.
    #[test]
    fn shutdown_waits_for_a_busy_worker_and_its_answer() {
        let (mut server, entered, release) = test_loop(&ObsState::new());
        let addr = server.local_addr();
        let held = std::thread::spawn(move || http_get(addr, "/hold").0);
        entered.recv().expect("the handler is running");
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
        let registry = MetricsRegistry::new();
        let c = registry.counter("uots_live_total", "Live counter");
        let server = ObsServer::start(
            "127.0.0.1:0",
            ObsState::new().with_registry(registry.clone()),
        )
        .expect("bind");
        let addr = server.local_addr();
        c.add(1);
        let (_, first) = http_get(addr, "/metrics");
        assert!(first.contains("uots_live_total 1"));
        c.add(41);
        let (_, second) = http_get(addr, "/metrics");
        assert!(second.contains("uots_live_total 42"));
    }
}
