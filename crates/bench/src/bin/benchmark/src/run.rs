//! One run of one workload: set-up, the measured window (end-to-end) or
//! the traced window plus replay (per-layer), and the correctness gates.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::Content;

use crate::http;
use crate::json;
use crate::layers::{self, Answer, Loaded, Model, Query};
use crate::server::{Binaries, Server};
use crate::spec::{Workload, DATASET_SEED, DEFAULT_SEED, K, SHAPES};
use crate::stats::{mean, median, p50, percentile, sorted};
use crate::trace::Tracer;

pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
    /// Where the span file of a traced run goes.
    pub out: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub dataset_hash: u64,
    pub pool_hash: u64,
    /// Why ops failed or the answer check did not pass; empty on a clean
    /// run.
    pub notes: Vec<String>,
}

/// Every n-th pool entry has its answer checked against the oracle.
const CHECK_EVERY: usize = 20;
/// Queries per `/search` body in the batch phase.
const BATCH: usize = 16;
/// Server starts timed per run: the median is the start-up share of
/// `setup_s`, and `client.recover_to_first_200_ms` in a traced run.
const STARTS: usize = 3;
/// Most requests a warm-up pass sends.
const WARM_UP_MAX: usize = 200;
/// Write batches per second beside the reads of a durable workload. A
/// writer sending back to back holds the durable facade's lock nearly all
/// the time, and what the reader then measures is who wins the lock.
const PACED_WRITES: f64 = 20.0;
/// Open-loop latency limit, from the due instant.
const OPEN_LIMIT_MS: f64 = 250.0;

/// Shares of `--seconds` the phases of the measured window get. A durable
/// workload writes beside its reads, so its closed loop takes the write
/// phase's share as well.
const CLOSED_SHARE: f64 = 0.7;
const WRITE_SHARE: f64 = 0.3;
/// Shares of `--seconds` in the traced window: each closed-loop pass, the
/// `/search` batches, each open-loop rate, and the writes of a durable
/// workload.
const TRACED_PASS_SHARE: f64 = 0.25;
const TRACED_BATCH_SHARE: f64 = 0.1;
const TRACED_OPEN_SHARE: f64 = 0.15;
const TRACED_WRITE_SHARE: f64 = 0.1;

/// Scratch directory below the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(bins: &Binaries, label: &str) -> Result<Scratch, String> {
        let dir = bins
            .dir
            .join("benchmark-work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pool_hash(pool: &[Query]) -> u64 {
    pool.iter()
        .fold(FNV_OFFSET, |h, q| fnv1a(fnv1a(h, q.body.as_bytes()), b"\n"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------- the load generators ----------

struct Sample {
    /// Pool index.
    index: usize,
    connect_ms: f64,
    total_ms: f64,
    /// `None` when the request failed below HTTP.
    reply: Option<(u16, String)>,
}

impl Sample {
    /// A `200` that was not degraded to a best-effort budget.
    fn ok(&self) -> bool {
        matches!(&self.reply, Some((200, body)) if !body.contains("\"degraded\":true"))
    }

    fn body(&self) -> &str {
        self.reply.as_ref().map_or("", |r| r.1.as_str())
    }
}

fn fire(addr: SocketAddr, path: &str, index: usize, body: &str) -> Sample {
    match http::post(addr, path, body) {
        Ok(r) => Sample {
            index,
            connect_ms: ms(r.connect),
            total_ms: ms(r.total),
            reply: Some((r.status, r.body)),
        },
        Err(_) => Sample {
            index,
            connect_ms: 0.0,
            total_ms: ms(http::TIMEOUT),
            reply: None,
        },
    }
}

enum Until {
    Deadline(Instant),
    /// Exactly this many requests in total, across all clients.
    Count(usize),
}

/// Closed loop: each of `clients` threads sends its next request when the
/// previous answer has arrived. Requests walk `bodies` in order, wrapping
/// around. Returns the samples by pool index and the wall time of the
/// loop.
fn closed_loop(
    addr: SocketAddr,
    path: &str,
    bodies: &[&str],
    clients: usize,
    until: Until,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        if matches!(until, Until::Deadline(d) if Instant::now() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(until, Until::Count(n) if i >= n) {
                            break;
                        }
                        let index = i % bodies.len();
                        mine.push(fire(addr, path, index, bodies[index]));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

struct OpenLoop {
    /// Completion minus due instant, milliseconds, per request.
    latency_ms: Vec<f64>,
    /// Send minus due instant, milliseconds, per request.
    lag_ms: Vec<f64>,
    achieved_rps: f64,
    failed: usize,
}

/// Open loop: request `i` is due at `i / rate` seconds whatever happened
/// to the ones before it. At most `senders` requests are in flight; a
/// request whose sender is late goes out late and its wait counts, both
/// in its latency and in the lag. None is dropped.
fn open_loop(
    addr: SocketAddr,
    bodies: &[&str],
    rate: f64,
    seconds: f64,
    senders: usize,
) -> OpenLoop {
    let total = ((rate * seconds) as usize).max(1);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done: Vec<(f64, f64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag = ms(Instant::now().saturating_duration_since(due));
                        let index = i % bodies.len();
                        let sample = fire(addr, "/topk", index, bodies[index]);
                        mine.push((ms(due.elapsed()), lag, sample.ok()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    OpenLoop {
        latency_ms: done.iter().map(|d| d.0).collect(),
        lag_ms: done.iter().map(|d| d.1).collect(),
        achieved_rps: done.len() as f64 / elapsed,
        failed: done.iter().filter(|d| !d.2).count(),
    }
}

/// One `/ingest` batch as sent.
struct Write {
    ms: f64,
    inserts: Vec<usize>,
    retires: Vec<u64>,
    /// Ids the server assigned; `None` when the batch failed.
    acked: Option<Vec<u64>>,
}

/// One writer posting batch after batch (8 inserts, 2 retires of earlier
/// acknowledgements, publish) until the deadline: back to back, or with
/// `pace` batches due per second and each timed from its due instant,
/// however late it went out. Returns the batches sent.
fn write_loop(
    addr: SocketAddr,
    data: &Loaded,
    seed: u64,
    pace: Option<f64>,
    deadline: Instant,
) -> Vec<Write> {
    let start = Instant::now();
    let mut writes: Vec<Write> = Vec::new();
    let mut acked: Vec<u64> = Vec::new();
    loop {
        let due = match pace {
            Some(rate) => start + Duration::from_secs_f64(writes.len() as f64 / rate),
            None => Instant::now(),
        };
        if due >= deadline {
            break;
        }
        let (inserts, retires) = layers::write_batch(data.trips(), seed, writes.len(), &acked);
        let trips: Vec<String> = inserts.iter().map(|&i| data.trip_json(i)).collect();
        let ids: Vec<String> = retires.iter().map(u64::to_string).collect();
        let body = format!(
            r#"{{"insert":[{}],"retire":[{}],"publish":true}}"#,
            trips.join(","),
            ids.join(",")
        );
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let reply = http::post(addr, "/ingest", &body);
        let took = ms(due.elapsed());
        let assigned = reply.ok().filter(|r| r.status == 200).and_then(|r| {
            let c = serde_json::from_str::<Content>(&r.body).ok()?;
            let inserted = json::u64s(c.get("inserted"));
            let retired = c.get("retired").and_then(json::as_u64) == Some(retires.len() as u64);
            (inserted.len() == inserts.len() && retired).then_some(inserted)
        });
        if let Some(ids) = &assigned {
            acked.extend(ids);
        }
        let failed = assigned.is_none();
        writes.push(Write {
            ms: took,
            inserts,
            retires,
            acked: assigned,
        });
        if failed {
            break; // later retires depend on this batch's ids
        }
    }
    writes
}

// ---------- answers ----------

fn parse_answer(body: &str) -> Option<Answer> {
    let c = serde_json::from_str::<Content>(body).ok()?;
    let matches = c.get("result")?.get("matches")?.as_seq()?;
    let mut answer = Answer {
        ids: Vec::new(),
        similarities: Vec::new(),
    };
    for m in matches {
        answer.ids.push(json::as_u64(m.get("id")?)?);
        answer
            .similarities
            .push(json::as_f64(m.get("similarity")?)?);
    }
    Some(answer)
}

fn same_answer(got: &Answer, want: &Answer) -> bool {
    got.ids == want.ids
        && got
            .similarities
            .iter()
            .zip(&want.similarities)
            .all(|(a, b)| (a - b).abs() <= 1e-9)
}

/// `"runtime":{"secs":S,"nanos":N}` of a `/topk` reply, milliseconds.
fn reported_runtime_ms(reply: &Content) -> Option<f64> {
    let runtime = reply.get("result")?.get("metrics")?.get("runtime")?;
    Some(json::as_f64(runtime.get("secs")?)? * 1e3 + json::as_f64(runtime.get("nanos")?)? / 1e6)
}

/// Algorithm names in the `planned` entry of a `/topk` reply: one for an
/// unsharded server, one per shard for a sharded one.
fn planned_algorithms(reply: &Content) -> Vec<String> {
    let name = |c: &Content| match c.get("algorithm") {
        Some(Content::Str(s)) => Some(s.clone()),
        _ => None,
    };
    reply
        .get("planned")
        .and_then(Content::as_seq)
        .into_iter()
        .flatten()
        .flat_map(
            |entry| match entry.get("shards").and_then(Content::as_seq) {
                Some(shards) => shards.iter().filter_map(name).collect::<Vec<_>>(),
                None => name(entry).into_iter().collect(),
            },
        )
        .collect()
}

// ---------- set-up ----------

/// The files one run works on, and how its server is started.
struct Stage<'a> {
    workload: &'a Workload,
    bins: &'a Binaries,
    file: PathBuf,
    wal_dir: PathBuf,
    log: PathBuf,
}

impl Stage<'_> {
    /// Starts the server with default flags plus the workload's own. With
    /// a WAL directory the server resumes whatever lineage it holds.
    fn spawn(&self) -> Result<Server, String> {
        let mut flags: Vec<String> = Vec::new();
        if self.workload.shards > 1 {
            flags.extend(["--shards".into(), self.workload.shards.to_string()]);
        }
        if self.workload.durable {
            let wal_dir = self.wal_dir.display().to_string();
            flags.extend([
                "--wal-dir".into(),
                wal_dir,
                "--fsync".into(),
                "batch".into(),
            ]);
        }
        Server::spawn(self.bins, &self.file, &flags, &self.log)
    }

    /// A start from nothing: without its directory the server creates a
    /// lineage instead of recovering one.
    fn spawn_fresh(&self) -> Result<Server, String> {
        if self.workload.durable {
            let _ = std::fs::remove_dir_all(&self.wal_dir);
        }
        self.spawn()
    }
}

/// Sends every body once, from `clients` threads; any failure is an
/// error, because a server that cannot warm up cannot be measured.
fn warm_up(addr: SocketAddr, bodies: &[&str], clients: usize) -> Result<(), String> {
    let (samples, _) = closed_loop(addr, "/topk", bodies, clients, Until::Count(bodies.len()));
    match samples.iter().find(|s| !s.ok()) {
        None => Ok(()),
        Some(s) => Err(format!(
            "warm-up request {} failed: {:?}",
            s.index,
            s.reply.as_ref().map(|r| r.0)
        )),
    }
}

// ---------- one run ----------

/// What the phases of a run share: the inputs, the op accounting and the
/// metrics collected so far.
struct Session<'a> {
    workload: &'a Workload,
    cfg: &'a RunConfig,
    data: &'a Loaded,
    pool: &'a [Query],
    /// [`SHAPES`] index of each of the pool's shapes.
    shape_ids: &'a [usize],
    /// Client threads: one per processor.
    clients: usize,
    attempted: u64,
    failed: u64,
    wrong_answers: u64,
    notes: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl<'a> Session<'a> {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn wrong(&mut self, note: String) {
        self.wrong_answers += 1;
        self.fail(note);
    }

    fn span(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share)
    }

    fn bodies(&self) -> Vec<&'a str> {
        let pool: &'a [Query] = self.pool;
        pool.iter().map(|q| q.body.as_str()).collect()
    }

    fn count_samples(&mut self, samples: &[Sample], what: &str) {
        self.attempted += samples.len() as u64;
        for s in samples.iter().filter(|s| !s.ok()) {
            let status = s.reply.as_ref().map(|r| r.0);
            self.fail(format!(
                "{what} of pool entry {} failed: {status:?}",
                s.index
            ));
        }
    }

    fn count_writes(&mut self, writes: &[Write]) {
        self.attempted += writes.len() as u64;
        if let Some(b) = writes.iter().position(|w| w.acked.is_none()) {
            self.fail(format!("ingest batch {b} was not acknowledged"));
        }
    }

    /// Pool indices whose answers are checked.
    fn checked(&self) -> impl Iterator<Item = usize> {
        (0..self.pool.len()).step_by(CHECK_EVERY)
    }

    /// Checks the first answer recorded for every checked pool entry
    /// against brute force over the dataset as generated. `samples` is in
    /// pool order.
    fn check_samples(&mut self, samples: &[Sample]) {
        for index in self.checked() {
            let at = samples.partition_point(|s| s.index < index);
            let Some(sample) = samples[at..]
                .iter()
                .take_while(|s| s.index == index)
                .find(|s| s.ok())
            else {
                continue; // the window ended before this entry was reached
            };
            let want = layers::oracle(self.data, &self.pool[index]);
            if !parse_answer(sample.body()).is_some_and(|got| same_answer(&got, &want)) {
                self.wrong(format!(
                    "pool entry {index}: answer differs from brute force"
                ));
            }
        }
    }

    /// Asks every checked pool entry once; `None` where the request
    /// failed.
    fn probe(&mut self, addr: SocketAddr) -> Vec<(usize, Option<Answer>)> {
        let indices: Vec<usize> = self.checked().collect();
        indices
            .into_iter()
            .map(|index| {
                self.attempted += 1;
                let sample = fire(addr, "/topk", index, &self.pool[index].body);
                let answer = sample.ok().then(|| parse_answer(sample.body())).flatten();
                if answer.is_none() {
                    self.fail(format!("probe of pool entry {index} failed"));
                }
                (index, answer)
            })
            .collect()
    }

    // ---- the end-to-end window (tracing off) ----

    fn measured_window(&mut self, server: &Server) -> Vec<Write> {
        let addr = server.addr;
        let bodies = self.bodies();
        let (data, seed, clients) = (self.data, self.cfg.seed, self.clients);
        let durable = self.workload.durable;

        // Phase 1: closed-loop /topk, beside one writer if durable.
        let closed_share = CLOSED_SHARE + if durable { WRITE_SHARE } else { 0.0 };
        let cpu_before = server.cpu_ms();
        let deadline = Instant::now() + self.span(closed_share);
        let ((samples, elapsed), beside) = if durable {
            std::thread::scope(|scope| {
                let writer =
                    scope.spawn(|| write_loop(addr, data, seed, Some(PACED_WRITES), deadline));
                let readers = (clients - 1).max(1);
                let reads = closed_loop(addr, "/topk", &bodies, readers, Until::Deadline(deadline));
                (
                    reads,
                    Some(writer.join().expect("the writer thread panicked")),
                )
            })
        } else {
            (
                closed_loop(addr, "/topk", &bodies, clients, Until::Deadline(deadline)),
                None,
            )
        };
        let cpu_ms = server.cpu_ms() - cpu_before;
        self.count_samples(&samples, "/topk");
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.total_ms)
            .collect();
        let mut completed = latencies.len();
        self.push("topk_rps", completed as f64 / elapsed.as_secs_f64());
        self.push("topk_p50_ms", p50(latencies));
        if !durable {
            self.check_samples(&samples);
        }
        drop(samples);

        // Phase 2: /ingest, unless the writer already ran beside the reads.
        let writes = beside.unwrap_or_else(|| {
            write_loop(
                addr,
                data,
                seed,
                None,
                Instant::now() + self.span(WRITE_SHARE),
            )
        });
        self.count_writes(&writes);
        let write_ms: Vec<f64> = writes
            .iter()
            .filter(|w| w.acked.is_some())
            .map(|w| w.ms)
            .collect();
        if durable {
            completed += write_ms.len();
        }
        self.push("ingest_p50_ms", p50(write_ms));
        self.push("server_cpu_ms_per_op", cpu_ms / completed.max(1) as f64);
        self.push("server_rss_mb", server.rss_peak_mb());
        writes
    }

    // ---- the traced window (per-layer, over HTTP) ----

    /// Returns the writes it sent (durable workloads only) and the p50 of
    /// the engine runtime the server reported for the entries the replay
    /// covers, which `trace.replay_vs_http_engine_ratio` is taken against.
    fn traced_window(&mut self, server: &Server) -> (Vec<Write>, f64) {
        let addr = server.addr;
        let bodies = self.bodies();
        let clients = self.clients;

        // Two closed-loop passes over the same entries, /metrics read
        // around them.
        let before = server.metrics_text().unwrap_or_default();
        let deadline = Instant::now() + self.span(TRACED_PASS_SHARE);
        let (pass1, _) = closed_loop(addr, "/topk", &bodies, clients, Until::Deadline(deadline));
        let covered = pass1.len().min(bodies.len());
        let (pass2, _) = closed_loop(
            addr,
            "/topk",
            &bodies[..covered],
            clients,
            Until::Count(pass1.len()),
        );
        let after = server.metrics_text().unwrap_or_default();
        self.count_samples(&pass1, "/topk");
        self.count_samples(&pass2, "/topk");
        if !self.workload.durable {
            self.check_samples(&pass1);
        }

        let latencies = |pass: &[Sample]| -> Vec<f64> {
            pass.iter().filter(|s| s.ok()).map(|s| s.total_ms).collect()
        };
        let all: Vec<&Sample> = pass1.iter().chain(&pass2).filter(|s| s.ok()).collect();
        let client: Vec<f64> = all.iter().map(|s| s.total_ms).collect();
        let client_sorted = sorted(client.clone());
        let client_p50 = percentile(&client_sorted, 0.50);
        // 0 for a shape this workload's pool does not hold.
        for (shape, (name, _)) in SHAPES.iter().enumerate() {
            let of_shape = all
                .iter()
                .filter(|s| self.shape_ids[self.pool[s.index].shape] == shape)
                .map(|s| s.total_ms)
                .collect();
            self.push(&format!("client.shape_{name}.p50_ms"), p50(of_shape));
        }
        self.push("client.topk_p50_ms", client_p50);
        self.push("client.topk_p95_ms", percentile(&client_sorted, 0.95));
        self.push("client.topk_p99_ms", percentile(&client_sorted, 0.99));
        self.push(
            "client.pass2_over_pass1_p50",
            p50(latencies(&pass2)) / p50(latencies(&pass1)).max(1e-9),
        );
        self.push(
            "client.connect_p50_ms",
            p50(all.iter().map(|s| s.connect_ms).collect()),
        );

        let delta = |name: &str| {
            http::prom_value(&after, name).unwrap_or(0.0)
                - http::prom_value(&before, name).unwrap_or(0.0)
        };
        let handled = delta("uots_serve_request_microseconds_count").max(1.0);
        let handle_mean_ms = delta("uots_serve_request_microseconds_sum") / handled / 1e3;
        self.push("serve.handle_mean_ms", handle_mean_ms);
        self.push(
            "serve.outside_handle_mean_ms",
            mean(&client) - handle_mean_ms,
        );
        self.push("serve.requests", delta("uots_serve_requests_total"));
        self.push("serve.errors", delta("uots_serve_errors_total"));
        self.push("serve.degraded", delta("uots_serve_degraded_total"));
        self.push("serve.shed", delta("uots_serve_shed_total"));

        let mut reported: Vec<f64> = Vec::new();
        let mut reported_replayed: Vec<f64> = Vec::new();
        let mut non_engine: Vec<f64> = Vec::new();
        let mut routes: Vec<String> = Vec::new();
        for s in &all {
            let Ok(reply) = serde_json::from_str::<Content>(s.body()) else {
                continue;
            };
            if let Some(runtime) = reported_runtime_ms(&reply) {
                reported.push(runtime);
                non_engine.push(s.total_ms - runtime);
                if s.index < self.workload.replay {
                    reported_replayed.push(runtime);
                }
            }
            routes.extend(planned_algorithms(&reply));
        }
        let reported_p50 = p50(reported);
        let non_engine_p50 = p50(non_engine);
        self.push("serve.non_engine_p50_ms", non_engine_p50);
        self.push(
            "serve.response_bytes_per_op",
            mean(
                &all.iter()
                    .map(|s| s.body().len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        self.push("engine.reported_runtime_p50_ms", reported_p50);
        let reported_replayed_p50 = p50(reported_replayed);
        for algorithm in ["expansion", "text-first", "iknn-baseline", "brute-force"] {
            let routed = routes.iter().filter(|r| *r == algorithm).count();
            self.push(
                &format!("planner.route_share.{algorithm}"),
                routed as f64 / routes.len().max(1) as f64,
            );
        }
        self.push(
            "trace.residual_share",
            (client_p50 - (non_engine_p50 + reported_p50)).abs() / client_p50.max(1e-9),
        );

        self.search_batches(addr, &bodies);
        self.open_ladder(addr, &bodies);

        // A durable workload gets writes to recover from.
        if !self.workload.durable {
            return (Vec::new(), reported_replayed_p50);
        }
        let deadline = Instant::now() + self.span(TRACED_WRITE_SHARE);
        let writes = write_loop(addr, self.data, self.cfg.seed, None, deadline);
        self.count_writes(&writes);
        (writes, reported_replayed_p50)
    }

    /// `/search` batches of 16 from one client.
    fn search_batches(&mut self, addr: SocketAddr, bodies: &[&str]) {
        let batches: Vec<String> = bodies
            .chunks_exact(BATCH)
            .map(|chunk| format!(r#"{{"queries":[{}]}}"#, chunk.join(",")))
            .collect();
        let batch_bodies: Vec<&str> = batches.iter().map(String::as_str).collect();
        let deadline = Instant::now() + self.span(TRACED_BATCH_SHARE);
        let (samples, elapsed) =
            closed_loop(addr, "/search", &batch_bodies, 1, Until::Deadline(deadline));
        self.count_samples(&samples, "/search");
        let mut answered = 0usize;
        for s in samples.iter().filter(|s| s.ok()) {
            let results = serde_json::from_str::<Content>(s.body())
                .ok()
                .and_then(|c| Some(c.get("results")?.as_seq()?.len()));
            match results {
                Some(BATCH) => answered += BATCH,
                other => self.fail(format!(
                    "/search batch {} answered {other:?} results",
                    s.index
                )),
            }
        }
        self.push(
            "parallel.http_batch_queries_per_s",
            answered as f64 / elapsed.as_secs_f64(),
        );
    }

    /// The open-loop ladder: two fixed rates, latency from the due instant.
    fn open_ladder(&mut self, addr: SocketAddr, bodies: &[&str]) {
        let mut lags: Vec<f64> = Vec::new();
        let mut max_ok = 0.0;
        for (label, rate) in ["lo", "hi"].iter().zip(self.workload.open_rates) {
            let seconds = self.cfg.seconds * TRACED_OPEN_SHARE;
            let open = open_loop(addr, bodies, rate, seconds, self.clients);
            self.attempted += open.latency_ms.len() as u64;
            for _ in 0..open.failed {
                self.fail(format!("open-loop request at {rate} req/s failed"));
            }
            let p95 = percentile(&sorted(open.latency_ms), 0.95);
            self.push(&format!("client.open_{label}.p95_ms"), p95);
            self.push(
                &format!("client.open_{label}.achieved_rps"),
                open.achieved_rps,
            );
            // A generator that falls behind its schedule has a backlog
            // that grows for as long as the rate is held.
            if p95 <= OPEN_LIMIT_MS && open.achieved_rps >= 0.9 * rate && open.failed == 0 {
                max_ok = rate;
            }
            lags.extend(open.lag_ms);
        }
        self.push("client.max_ok_rps", max_ok);
        self.push("client.sched_lag_p95_ms", percentile(&sorted(lags), 0.95));
    }

    // ---- durability: crash, recover, compare ----

    /// Checks the answers after `writes` against brute force over the
    /// dataset plus every acknowledged write, kills the server, restarts
    /// it on the same directory, and checks that the answers are the same
    /// and every acknowledged trip is live. Returns the restarted server.
    fn crash_and_recover(
        &mut self,
        stage: &Stage<'_>,
        server: Server,
        writes: &[Write],
    ) -> Result<Server, String> {
        let model = Model::new(self.data);
        let mut live: Vec<u64> = Vec::new();
        for w in writes {
            let Some(acked) = &w.acked else { continue };
            if &model.apply(self.data, &w.inserts, &w.retires) != acked {
                self.wrong("the server assigned other ids than the unsharded model".into());
            }
            live.retain(|id| !w.retires.contains(id));
            live.extend(acked);
        }
        let before = self.probe(server.addr);
        for (index, answer) in &before {
            let want = model.oracle(&self.pool[*index]);
            if answer.as_ref().is_some_and(|got| !same_answer(got, &want)) {
                self.wrong(format!(
                    "pool entry {index}: answer after ingest differs from brute force"
                ));
            }
        }
        server.kill();
        let server = stage.spawn()?;
        if before != self.probe(server.addr) {
            self.wrong("answers after SIGKILL and restart differ from the answers before".into());
        }
        // Every acknowledged, unretired trip must still be live: retiring
        // them all must retire exactly that many.
        self.attempted += 1;
        let ids: Vec<String> = live.iter().map(u64::to_string).collect();
        let body = format!(r#"{{"retire":[{}],"publish":true}}"#, ids.join(","));
        let retired = http::post(server.addr, "/ingest", &body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| serde_json::from_str::<Content>(&r.body).ok())
            .and_then(|c| json::as_u64(c.get("retired")?));
        if retired != Some(live.len() as u64) {
            self.wrong(format!(
                "{} acknowledged trips should be live after recovery, the server retired {retired:?}",
                live.len()
            ));
        }
        Ok(server)
    }
}

pub fn run(workload: &Workload, cfg: &RunConfig, bins: &Binaries) -> Result<Outcome, String> {
    let scratch = Scratch::new(bins, &format!("{}-{}", workload.name, cfg.seed))?;
    let stage = Stage {
        workload,
        bins,
        file: scratch.0.join("data.uotsds"),
        wal_dir: scratch.0.join("wal"),
        log: scratch.0.join("uots-serve.log"),
    };

    // ---- inputs: the dataset file, and the pools drawn from the seed ----
    let generate = bins.generate(workload.preset, workload.trips, DATASET_SEED, &stage.file)?;
    let file = std::fs::read(&stage.file).map_err(|e| format!("reading the dataset: {e}"))?;
    let dataset_hash = fnv1a(FNV_OFFSET, &file);
    drop(file);
    let data = layers::load(&stage.file)?;
    let (shape_ids, shapes) = workload.pool_shapes(cfg.trace);
    let pool = layers::make_pool(&data, &shapes, workload.pool, K, cfg.seed);
    // Warm-up bodies come from a seed no measured pool uses.
    let warm_pool = layers::make_pool(
        &data,
        &shapes,
        (workload.pool / 10).clamp(20, WARM_UP_MAX),
        K,
        cfg.seed ^ 0x5eed_0000_0000,
    );
    let pool_hash = pool_hash(&pool);
    if let (Some(pinned), true, false) = (workload.pinned, cfg.seed == DEFAULT_SEED, cfg.trace) {
        if pinned != (dataset_hash, pool_hash) {
            return Err(format!(
                "workload drift on {}: dataset {dataset_hash:016x} and pool {pool_hash:016x}, \
                 pinned are {:016x} and {:016x}",
                workload.name, pinned.0, pinned.1
            ));
        }
    }
    let mut session = Session {
        workload,
        cfg,
        data: &data,
        pool: &pool,
        shape_ids,
        clients: std::thread::available_parallelism().map_or(2, usize::from),
        attempted: 0,
        failed: 0,
        wrong_answers: 0,
        notes: Vec::new(),
        metrics: Vec::new(),
    };

    // ---- set-up: start, wait until ready, warm up. A measured run does
    // it several times and reports the median; a traced run reports no
    // set-up time and does it once. ----
    let warm_bodies: Vec<&str> = warm_pool.iter().map(|q| q.body.as_str()).collect();
    let mut starts: Vec<f64> = Vec::new();
    let mut server = None;
    for _ in 0..if cfg.trace { 1 } else { STARTS } {
        drop(server.take());
        let begun = Instant::now();
        let started = stage.spawn_fresh()?;
        warm_up(started.addr, &warm_bodies, session.clients)?;
        starts.push(begun.elapsed().as_secs_f64());
        server = Some(started);
    }
    let mut server = server.expect("at least one start");

    let (writes, http_engine_p50) = if cfg.trace {
        session.push("datagen.generate_s", generate.as_secs_f64());
        session.push("persist.load_ms", data.load_ms);
        session.push(
            "persist.file_mb",
            data.file_bytes as f64 / f64::from(1 << 20),
        );
        session.push(
            "persist.bytes_per_trip",
            data.file_bytes as f64 / data.trips() as f64,
        );
        session.traced_window(&server)
    } else {
        session.push("setup_s", generate.as_secs_f64() + median(&starts));
        (session.measured_window(&server), 0.0)
    };
    if workload.durable {
        server = session.crash_and_recover(&stage, server, &writes)?;
    }

    if cfg.trace {
        // Restart-to-first-200 on what this workload's server restarts
        // from: its WAL directory if it has one, the dataset file if not.
        let mut restarts: Vec<f64> = Vec::new();
        for _ in 0..STARTS {
            drop(server);
            server = stage.spawn()?;
            restarts.push(ms(server.ready));
        }
        session.push("client.recover_to_first_200_ms", median(&restarts));
        drop(server);

        let mut tracer = Tracer::new();
        let entries = &pool[..pool.len().min(workload.replay)];
        // An unsharded workload still gets its `shard.*` numbers, at the
        // fan-out of `shard_fanout`.
        let shards = if workload.shards > 1 {
            workload.shards
        } else {
            4
        };
        let replayed = layers::replay(&data, entries, shards, cfg.seed, &scratch.0, &mut tracer)?;
        for (name, value) in replayed {
            if name == "engine.run_p50_ms" {
                session.push(
                    "trace.replay_vs_http_engine_ratio",
                    value / http_engine_p50.max(1e-9),
                );
            }
            session.push(name, value);
        }
        if let Some(dir) = &cfg.out {
            let path = dir.join(format!("TRACE_{}.json", workload.name));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    } else {
        drop(server);
    }

    Ok(Outcome {
        correct: session.wrong_answers == 0,
        attempted: session.attempted.max(1),
        failed: session.failed,
        metrics: session.metrics,
        dataset_hash,
        pool_hash,
        notes: session.notes,
    })
}
