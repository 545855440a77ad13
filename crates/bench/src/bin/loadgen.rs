//! `loadgen` — latency-vs-QPS curves for the UOTS query service.
//!
//! Starts an in-process [`QueryService`] over a generated dataset, then
//! drives it over real HTTP (loopback TCP, one connection per request —
//! the service's wire protocol) in two modes:
//!
//! * **closed loop** — N workers, each firing its next request the
//!   moment the previous answer lands. Sweeps worker counts; reports
//!   the achieved throughput and the per-request latency distribution.
//! * **open loop** — a dispatcher fires requests on a fixed schedule at
//!   a target arrival rate, regardless of completions (the
//!   coordinated-omission-free measurement). Sweeps target QPS; latency
//!   includes any queueing the service imposes.
//!
//! Each sweep runs twice: with the adaptive planner (service default)
//! and with `--force-algorithm expansion` pinned, so the planner's
//! dispatch overhead and its routing wins are a measured number, not a
//! belief. Rows land in `BENCH_serve.json` (same schema as every other
//! experiment: `experiment` is `serve_closed` / `serve_open`, the swept
//! `parameter` is `workers` / `qps`, `algorithm` is `planner` /
//! `forced-expansion`).
//!
//! ```text
//! loadgen [--scale tiny|bench|brn|nrn] [--trips N] [--queries N]
//!         [--duration-ms MS] [--workers 1,4,8] [--qps 50,200]
//!         [--out DIR] [--seed S]
//! ```

use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uots::core::shard::ShardedCluster;
use uots::obs::{EventJournal, MetricsRegistry, ObsState, TailSampler};
use uots::serve::{QueryService, ServiceConfig};
use uots_bench::{make_queries, render_table, LatencyStats, Row, Scale};
use uots_core::planner::AlgorithmKind;
use uots_core::UotsQuery;
use uots_datagen::Dataset;

struct Args {
    scale: Scale,
    trips: usize,
    queries: usize,
    duration: Duration,
    workers: Vec<usize>,
    qps: Vec<f64>,
    out: String,
    seed: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        scale: Scale::Bench,
        trips: 0,
        queries: 64,
        duration: Duration::from_millis(1500),
        workers: vec![1, 4, 8],
        qps: vec![50.0, 200.0],
        out: ".".to_string(),
        seed: 42,
    };
    let mut i = 0;
    let die = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2);
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).cloned();
        let take = |name: &str| -> String {
            value
                .clone()
                .unwrap_or_else(|| die(format!("--{name} needs a value")))
        };
        match flag {
            "--scale" => {
                let v = take("scale");
                args.scale =
                    Scale::parse(&v).unwrap_or_else(|| die(format!("unknown scale `{v}`")));
            }
            "--trips" => {
                args.trips = take("trips")
                    .parse()
                    .unwrap_or_else(|_| die("--trips must be an integer".into()));
            }
            "--queries" => {
                args.queries = take("queries")
                    .parse()
                    .unwrap_or_else(|_| die("--queries must be an integer".into()));
            }
            "--duration-ms" => {
                let ms: u64 = take("duration-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--duration-ms must be an integer".into()));
                args.duration = Duration::from_millis(ms);
            }
            "--workers" => {
                args.workers = take("workers")
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse()
                            .unwrap_or_else(|_| die("--workers must be integers".into()))
                    })
                    .collect();
            }
            "--qps" => {
                args.qps = take("qps")
                    .split(',')
                    .map(|q| {
                        q.trim()
                            .parse()
                            .unwrap_or_else(|_| die("--qps must be numbers".into()))
                    })
                    .collect();
            }
            "--out" => args.out = take("out"),
            "--seed" => {
                args.seed = take("seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be an integer".into()));
            }
            other => die(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if args.trips == 0 {
        args.trips = args.scale.default_trips();
    }
    args
}

/// Serialized request bodies for `/topk`, round-robined by the drivers.
fn request_pool(ds: &Dataset, n: usize, seed: u64) -> Vec<String> {
    // A mixed pool so the planner actually routes: small and large m,
    // few and many keywords, spatial- and text-leaning λ.
    let mut bodies = Vec::with_capacity(n);
    let shapes = [
        (2usize, 2usize, 0.5f64),
        (1, 3, 0.5),
        (10, 1, 0.5),
        (3, 2, 0.1),
    ];
    for (si, (m, kws, lambda)) in shapes.iter().enumerate() {
        let per = n.div_ceil(shapes.len());
        for q in make_queries(ds, per, *m, *kws, *lambda, 3, seed + si as u64) {
            bodies.push(topk_body(&q, *lambda));
        }
    }
    bodies.truncate(n.max(1));
    bodies
}

fn topk_body(q: &UotsQuery, lambda: f64) -> String {
    let locs: Vec<String> = q.locations().iter().map(|l| l.0.to_string()).collect();
    let kws: Vec<String> = q.keywords().ids().iter().map(|k| k.0.to_string()).collect();
    format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":{lambda},"k":{}}}"#,
        locs.join(","),
        kws.join(","),
        q.options().k
    )
}

/// One blocking request/response cycle; returns the HTTP status.
fn fire(addr: SocketAddr, body: &str) -> u16 {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    if write!(
        stream,
        "POST /topk HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .is_err()
    {
        return 0;
    }
    let mut raw = String::new();
    if stream.read_to_string(&mut raw).is_err() {
        return 0;
    }
    raw.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

struct Outcome {
    stats: LatencyStats,
    completed: usize,
    errors: usize,
    elapsed: Duration,
}

fn row_from(
    experiment: &str,
    dataset: &str,
    algorithm: &str,
    parameter: &str,
    value: f64,
    o: &Outcome,
) -> Row {
    let mut row = Row {
        experiment: experiment.to_string(),
        dataset: dataset.to_string(),
        algorithm: algorithm.to_string(),
        parameter: parameter.to_string(),
        value,
        queries: o.completed,
        // For serving rows, `runtime_ms` reports the *achieved
        // throughput-normalized* mean service time; visited/candidate
        // counters are engine-side and not visible per HTTP request.
        runtime_ms: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
        max_ms: 0.0,
        visited: 0.0,
        candidates: 0.0,
        candidate_ratio: 0.0,
        pruning_ratio: 0.0,
        bound_gap: 0.0,
        recall: if o.errors == 0 { 1.0 } else { 0.0 },
    };
    o.stats.fill(&mut row);
    row
}

/// Closed loop: `workers` threads, back-to-back requests for `duration`.
fn closed_loop(addr: SocketAddr, pool: &[String], workers: usize, duration: Duration) -> Outcome {
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));
    let stats = Arc::new(Mutex::new(LatencyStats::default()));
    let started = Instant::now();
    let mut handles = Vec::new();
    let completed = Arc::new(AtomicUsize::new(0));
    for w in 0..workers {
        let stop = Arc::clone(&stop);
        let errors = Arc::clone(&errors);
        let stats = Arc::clone(&stats);
        let completed = Arc::clone(&completed);
        let pool: Vec<String> = pool.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut i = w;
            while !stop.load(Ordering::Relaxed) {
                let body = &pool[i % pool.len()];
                i += workers;
                let t0 = Instant::now();
                let code = fire(addr, body);
                let dt = t0.elapsed();
                if code == 200 {
                    stats.lock().unwrap().record(dt);
                    completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let out = stats.lock().unwrap().clone();
    Outcome {
        stats: out,
        completed: completed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    }
}

/// Open loop: fire at `qps` on a fixed schedule for `duration`, one
/// thread per in-flight request (arrivals never wait for completions).
fn open_loop(addr: SocketAddr, pool: &[String], qps: f64, duration: Duration) -> Outcome {
    let errors = Arc::new(AtomicUsize::new(0));
    let stats = Arc::new(Mutex::new(LatencyStats::default()));
    let completed = Arc::new(AtomicUsize::new(0));
    let interval = Duration::from_secs_f64(1.0 / qps.max(1.0));
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut i = 0usize;
    while started.elapsed() < duration {
        let due = interval * u32::try_from(i).unwrap_or(u32::MAX);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let body = pool[i % pool.len()].clone();
        let errors = Arc::clone(&errors);
        let stats = Arc::clone(&stats);
        let completed = Arc::clone(&completed);
        handles.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let code = fire(addr, &body);
            let dt = t0.elapsed();
            if code == 200 {
                stats.lock().unwrap().record(dt);
                completed.fetch_add(1, Ordering::Relaxed);
            } else {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }));
        i += 1;
    }
    for h in handles {
        let _ = h.join();
    }
    let out = stats.lock().unwrap().clone();
    Outcome {
        stats: out,
        completed: completed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    }
}

fn start_service(ds: &Dataset, force: Option<AlgorithmKind>) -> QueryService {
    let registry = MetricsRegistry::new();
    let cluster = ShardedCluster::with_metrics(
        Arc::new(ds.network.clone()),
        &ds.store,
        ds.vocab.len(),
        1,
        Some(&registry),
        None,
    );
    let (journal, sampler) = (EventJournal::default(), TailSampler::default());
    let obs = ObsState::new(registry, journal, sampler, || "{}".into());
    let cfg = ServiceConfig {
        force,
        ..ServiceConfig::default()
    };
    QueryService::start("127.0.0.1:0", cluster, obs, cfg).expect("bind loopback service")
}

fn main() {
    let args = parse_args();
    let preset = format!("{:?}", args.scale).to_lowercase();
    eprintln!(
        "loadgen: building {preset} dataset ({} trips, seed {})",
        args.trips, args.seed
    );
    let ds = args.scale.build(args.trips);
    let pool = request_pool(&ds, args.queries, args.seed);

    let mut rows: Vec<Row> = Vec::new();
    for (algorithm, force) in [
        ("planner", None),
        ("forced-expansion", Some(AlgorithmKind::Expansion)),
    ] {
        let mut service = start_service(&ds, force);
        let addr = service.local_addr();
        eprintln!("loadgen: {algorithm} service on {addr}");
        for &workers in &args.workers {
            let o = closed_loop(addr, &pool, workers, args.duration);
            let achieved = o.completed as f64 / o.elapsed.as_secs_f64();
            eprintln!(
                "  closed workers={workers}: {achieved:.0} req/s, {} ok, {} errors",
                o.completed, o.errors
            );
            let mut row = row_from(
                "serve_closed",
                &ds.name,
                algorithm,
                "workers",
                workers as f64,
                &o,
            );
            // For serving rows the mean column carries achieved QPS.
            row.runtime_ms = achieved;
            rows.push(row);
        }
        for &qps in &args.qps {
            let o = open_loop(addr, &pool, qps, args.duration);
            let achieved = o.completed as f64 / o.elapsed.as_secs_f64();
            eprintln!(
                "  open qps={qps}: achieved {achieved:.0} req/s, {} ok, {} errors",
                o.completed, o.errors
            );
            let mut row = row_from("serve_open", &ds.name, algorithm, "qps", qps, &o);
            row.runtime_ms = achieved;
            rows.push(row);
        }
        service.shutdown();
    }

    println!(
        "{}",
        render_table(
            "serve: latency vs load (runtime_ms column = achieved req/s)",
            &rows
        )
    );
    let dir = std::path::Path::new(&args.out);
    match uots_bench::write_bench_json(dir, "serve", &preset, args.seed, &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: writing BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }
    let any_completed = rows.iter().any(|r| r.queries > 0);
    if !any_completed {
        eprintln!("error: no request completed in any sweep point");
        std::process::exit(1);
    }
}
