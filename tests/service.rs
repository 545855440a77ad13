//! End-to-end tests of the query service: concurrent HTTP answers must
//! be bit-identical to direct engine calls against the same epoch,
//! overload must degrade to certified best-effort (or shed with 429) —
//! never a 5xx, never a hang — and `/ingest` must publish epochs that
//! subsequent searches observe.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use serde::{Content, Serialize};
use uots::cluster::ShardedDurable;
use uots::core::planner::Planner;
use uots::durable::DurableIngest;
use uots::obs::{EventJournal, MetricsRegistry, ObsState, TailSampler};
use uots::prelude::*;
use uots::serve::{QueryService, ServiceConfig};
use uots::{workload, Dataset, DatasetConfig, KeywordSet, QueryOptions, UotsQuery, WalConfig};
use uots_core::algorithms::Algorithm;
use uots_core::{Partitioner, ShardedCluster};
use uots_text::KeywordId;
use uots_trajectory::{Sample, Trajectory};

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let code: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

fn as_u64(c: Option<&Content>) -> Option<u64> {
    match c {
        Some(Content::U64(v)) => Some(*v),
        Some(Content::I64(v)) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Content) {
    let (code, text) = http(addr, "POST", path, body);
    let content = serde_json::from_str::<Content>(&text)
        .unwrap_or_else(|e| panic!("non-JSON body for {path} ({code}): {e}\n{text}"));
    (code, content)
}

/// The default server: a one-shard volatile cluster.
fn start_service(trips: usize, seed: u64, cfg: ServiceConfig) -> (QueryService, Dataset) {
    start_cluster_service(trips, seed, 1, cfg)
}

/// One query's JSON for the wire, from a workload spec.
fn query_json(locations: &[NodeId], keywords: &[KeywordId], lambda: f64, k: usize) -> String {
    let locs: Vec<String> = locations.iter().map(|n| n.0.to_string()).collect();
    let kws: Vec<String> = keywords.iter().map(|k| k.0.to_string()).collect();
    format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":{lambda},"k":{k}}}"#,
        locs.join(","),
        kws.join(",")
    )
}

/// Canonicalizes the integer representation: the JSON parser yields
/// `I64` for anything in `i64` range while direct `Serialize` yields
/// `U64` for unsigned sources. The *values* must still match bit-exactly
/// (floats keep their full mantissa through the writer's round-trip
/// format).
fn normalized(c: &Content) -> Content {
    match c {
        Content::U64(v) if *v <= i64::MAX as u64 => Content::I64(*v as i64),
        Content::Seq(items) => Content::Seq(items.iter().map(normalized).collect()),
        Content::Map(entries) => Content::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), normalized(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The `matches` subtree of a direct engine run, as serialized `Content`
/// — the bit-exact expectation for the HTTP answer.
fn direct_matches(ds: &Dataset, q: &UotsQuery) -> Content {
    let db = uots::db(ds);
    let result = Planner::new().run(&db, q).expect("direct run");
    normalized(result.serialize().get("matches").expect("matches field"))
}

#[test]
fn concurrent_http_results_are_bit_identical_to_direct_engine_calls() {
    let (service, ds) = start_service(150, 7, ServiceConfig::default());
    let addr = service.local_addr();
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 8,
            ..Default::default()
        },
    );
    let cases: Vec<(String, UotsQuery)> = specs
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let k = 1 + i % 4;
            let json = query_json(&s.locations, s.keywords.ids(), 0.5, k);
            let q = UotsQuery::with_options(
                s.locations,
                s.keywords,
                Vec::new(),
                QueryOptions {
                    k,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
            (json, q)
        })
        .collect();

    // Fire every case from its own thread, twice over, against /search
    // (batch of one) and /topk (bare query object).
    let cases = Arc::new(cases);
    let ds = Arc::new(ds);
    let mut handles = Vec::new();
    for round in 0..2 {
        for (i, (json, q)) in cases.iter().enumerate() {
            let json = json.clone();
            let q = q.clone();
            let ds = Arc::clone(&ds);
            handles.push(std::thread::spawn(move || {
                let want = direct_matches(&ds, &q);
                if round == 0 {
                    let (code, body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
                    assert_eq!(code, 200, "case {i}: {body:?}");
                    let results = body.get("results").expect("results").as_seq().unwrap();
                    let got = results[0].get("matches").expect("matches");
                    assert_eq!(&want, got, "case {i}: /search diverged from direct call");
                } else {
                    let (code, body) = post(addr, "/topk", &json);
                    assert_eq!(code, 200, "case {i}: {body:?}");
                    let got = body
                        .get("result")
                        .expect("result")
                        .get("matches")
                        .expect("matches");
                    assert_eq!(&want, got, "case {i}: /topk diverged from direct call");
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // The response also reports the plan; on this service nothing is
    // degraded and the epoch is the seed epoch.
    let (json, _) = &cases[0];
    let (code, body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
    assert_eq!(code, 200);
    assert_eq!(body.get("degraded"), Some(&Content::Bool(false)));
    assert!(body.get("epoch").is_some());
    let planned = body.get("planned").unwrap().as_seq().unwrap();
    let plans = planned[0].get("shards").unwrap().as_seq().unwrap();
    assert_eq!(plans.len(), 1, "one plan per shard, one shard");
    assert!(plans[0].get("algorithm").is_some());
    assert!(plans[0].get("reason").is_some());
    // one response shape at every shard count
    let epochs = body.get("epochs").expect("epochs").as_seq().unwrap();
    assert_eq!(epochs.len(), 1);
    assert_eq!(as_u64(body.get("shards_cut")), Some(0));
}

#[test]
fn request_level_force_matches_the_planner_through_http() {
    let (service, ds) = start_service(120, 11, ServiceConfig::default());
    let addr = service.local_addr();
    let spec = workload::generate(&ds, &workload::WorkloadConfig::default())
        .into_iter()
        .next()
        .unwrap();
    let json = query_json(&spec.locations, spec.keywords.ids(), 0.5, 3);
    let (code, planner_body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
    assert_eq!(code, 200);
    let want = planner_body.get("results").unwrap().as_seq().unwrap()[0]
        .get("matches")
        .unwrap()
        .clone();
    for algo in ["brute-force", "text-first", "iknn-baseline", "expansion"] {
        let (code, body) = post(
            addr,
            "/search",
            &format!(r#"{{"algorithm":"{algo}","queries":[{json}]}}"#),
        );
        assert_eq!(code, 200, "forced {algo}");
        let got = body.get("results").unwrap().as_seq().unwrap()[0]
            .get("matches")
            .unwrap();
        assert_eq!(&want, got, "forced {algo} diverged over HTTP");
        let planned = body.get("planned").unwrap().as_seq().unwrap();
        let plan = &planned[0].get("shards").unwrap().as_seq().unwrap()[0];
        assert_eq!(plan.get("algorithm"), Some(&Content::Str(algo.to_string())));
        assert_eq!(
            plan.get("reason"),
            Some(&Content::Str("forced".to_string()))
        );
    }
    let (code, body) = post(addr, "/search", r#"{"algorithm":"nope","queries":[{}]}"#);
    assert_eq!(code, 400, "{body:?}");
}

#[test]
fn overload_degrades_to_certified_best_effort_and_never_5xx() {
    // Tenant soft ring at zero: every request runs under the degraded
    // budget. One visited trajectory is far below what these queries
    // need, so completeness must certify the gap.
    let cfg = ServiceConfig {
        tenant_inflight: 0,
        degraded_budget: uots::ExecutionBudget::default().with_max_visited(1),
        ..ServiceConfig::default()
    };
    let (service, ds) = start_service(200, 23, cfg);
    let addr = service.local_addr();
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 6,
            ..Default::default()
        },
    );
    let mut best_effort = Vec::new();
    for s in specs {
        let json = query_json(&s.locations, s.keywords.ids(), 0.5, 3);
        let options = QueryOptions {
            k: 3,
            ..Default::default()
        };
        let summary = UotsQuery::with_options(s.locations, s.keywords, vec![], options)
            .unwrap()
            .summary();
        let (code, body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
        assert_eq!(code, 200, "degraded requests still answer 200: {body:?}");
        assert_eq!(body.get("degraded"), Some(&Content::Bool(true)));
        let completeness = body.get("results").unwrap().as_seq().unwrap()[0]
            .get("completeness")
            .expect("completeness certificate");
        // `Exact` serializes as a bare string, `BestEffort` as a map
        // carrying the certified bound gap.
        match completeness {
            Content::Str(s) => assert_eq!(s, "Exact"),
            other => {
                let rendered = serde_json::to_string(other).unwrap();
                assert!(
                    rendered.contains("BestEffort") && rendered.contains("bound_gap"),
                    "unexpected completeness: {rendered}"
                );
                best_effort.push(summary);
            }
        }
    }
    assert!(
        !best_effort.is_empty(),
        "a 1-visited-trajectory budget must interrupt at least one query"
    );

    // every served query reached the tail sampler, and each best-effort
    // one left a metadata-only exemplar under its own summary
    let (code, text) = http(addr, "GET", "/traces", "");
    assert_eq!(code, 200, "{text}");
    let traces: Content = serde_json::from_str(&text).expect("/traces is JSON");
    let stats = traces.get("stats").expect("sampler stats");
    assert_eq!(as_u64(stats.get("observed")), Some(6), "{text}");
    let kept: Vec<&Content> = traces
        .get("exemplars")
        .and_then(Content::as_seq)
        .expect("exemplar list")
        .iter()
        .filter(|e| e.get("reason") == Some(&Content::Str("best_effort".into())))
        .collect();
    assert_eq!(kept.len(), best_effort.len(), "{text}");
    for (exemplar, summary) in kept.iter().zip(&best_effort) {
        assert_eq!(exemplar.get("query"), Some(&Content::Str(summary.clone())));
        assert_eq!(exemplar.get("trace"), Some(&Content::Null));
    }
}

#[test]
fn hard_overload_sheds_with_429_never_hangs() {
    let cfg = ServiceConfig {
        max_inflight: 1,
        tenant_inflight: 1000,
        ..ServiceConfig::default()
    };
    let (service, ds) = start_service(150, 31, cfg);
    let addr = service.local_addr();
    let spec = workload::generate(&ds, &workload::WorkloadConfig::default())
        .into_iter()
        .next()
        .unwrap();
    // Each request carries 4 queries against a 1-slot ring, fired from 12
    // threads: whatever interleaving happens, every response must be 200
    // or a JSON 429 — and all must arrive (no hang, no 5xx).
    let json = query_json(&spec.locations, spec.keywords.ids(), 0.5, 2);
    let body = format!(r#"{{"queries":[{json},{json},{json},{json}]}}"#);
    let mut handles = Vec::new();
    for _ in 0..12 {
        let body = body.clone();
        handles.push(std::thread::spawn(move || post(addr, "/search", &body)));
    }
    let mut shed = 0;
    for h in handles {
        let (code, content) = h.join().expect("client thread");
        assert!(
            code == 200 || code == 429,
            "overload must answer 200 or 429, got {code}: {content:?}"
        );
        if code == 429 {
            assert!(content.get("error").is_some(), "429 carries a JSON error");
            shed += 1;
        }
    }
    assert!(shed > 0, "a 1-slot ring under 12×4 queries must shed");
}

/// A trajectory (as `/ingest` JSON) tagged with the vocabulary's last,
/// rare keyword and starting exactly on the returned vertex: once
/// ingested it must win a k=1 text-heavy search for that keyword there.
fn marker_trajectory(ds: &Dataset) -> (KeywordId, NodeId, Content) {
    let marker = KeywordId(u32::try_from(ds.vocab.len()).unwrap() - 1);
    let node = NodeId(0);
    let t = Trajectory::new(
        vec![
            Sample { node, time: 60.0 },
            Sample {
                node: NodeId(1),
                time: 120.0,
            },
        ],
        KeywordSet::from_ids([marker]),
    )
    .expect("valid trajectory");
    (marker, node, t.serialize())
}

#[test]
fn ingest_publishes_epochs_visible_to_search() {
    let (service, ds) = start_service(100, 13, ServiceConfig::default());
    let addr = service.local_addr();
    let epoch0 = service.current_epoch();

    let (marker, node, t) = marker_trajectory(&ds);
    let ingest_body = serde_json::to_string(&Content::Map(vec![
        ("insert".to_string(), Content::Seq(vec![t])),
        ("retire".to_string(), Content::Seq(vec![Content::U64(0)])),
    ]))
    .unwrap();
    let (code, reply) = post(addr, "/ingest", &ingest_body);
    assert_eq!(code, 200, "{reply:?}");
    let epoch1 = as_u64(reply.get("epoch")).expect("epoch in reply");
    assert!(epoch1 > epoch0, "publish must advance the epoch");
    assert_eq!(as_u64(reply.get("retired")), Some(1));
    let inserted = reply.get("inserted").unwrap().as_seq().unwrap();
    assert_eq!(inserted.len(), 1);
    let new_id = as_u64(Some(&inserted[0])).expect("inserted id");

    let query = format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":0.2,"k":1}}"#,
        node.0, marker.0
    );
    let (code, body) = post(addr, "/topk", &query);
    assert_eq!(code, 200, "{body:?}");
    assert_eq!(
        as_u64(body.get("epoch")),
        Some(epoch1),
        "search must observe the published epoch"
    );
    let matches = body
        .get("result")
        .unwrap()
        .get("matches")
        .unwrap()
        .as_seq()
        .unwrap();
    let top = serde_json::to_string(&matches[0]).unwrap();
    assert!(
        top.contains(&format!("{new_id}")),
        "ingested trajectory must win its own query: {top}"
    );
}

/// A fresh scratch directory for one test of this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uots_service_{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A durable server of `shards` shards over `dir`, opened the binary's own
/// way — [`ShardedDurable::open_or_create`]: resumed when the directory
/// holds a lineage (returning one recovery report per shard), created
/// otherwise. Registry and journal are the ones `/metrics` and `/journal`
/// serve.
fn start_durable_service(
    ds: &Dataset,
    dir: &Path,
    shards: usize,
) -> (QueryService, Vec<uots::durable::RecoveryReport>) {
    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let (cluster, recovery) = ShardedDurable::open_or_create(
        ds,
        dir,
        shards,
        WalConfig::default(),
        None,
        Some(&registry),
        Some(&journal),
    )
    .expect("open wal dir");
    let obs = ObsState::new()
        .with_registry(registry)
        .with_journal(journal);
    let service =
        QueryService::start_durable("127.0.0.1:0", cluster, obs, ServiceConfig::default())
            .expect("bind service");
    (service, recovery)
}

/// The event names `GET /journal` holds, oldest first.
fn journal_names(addr: SocketAddr) -> Vec<String> {
    let (code, body) = http(addr, "GET", "/journal?n=4096", "");
    assert_eq!(code, 200, "{body}");
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let event: Content = serde_json::from_str(l).expect("journal line parses");
            match event.get("name") {
                Some(Content::Str(name)) => name.clone(),
                other => panic!("journal line without a name: {other:?}"),
            }
        })
        .collect()
}

/// Regression: an unsharded `uots-serve --wal-dir` restart used to
/// `create` over the existing log and serve the base dataset without the
/// acknowledged writes. The server now goes through
/// [`ShardedDurable::open_or_create`], which resumes when the directory
/// holds a lineage — and hands the recovery the server's own journal, so
/// the restarted server shows what it recovered from (it used to attach
/// the journal after recovery had run: `/journal` came up empty).
#[test]
fn durable_restart_keeps_acknowledged_writes() {
    for shards in [1, 2] {
        durable_restart_keeps_acknowledged_writes_at(shards);
    }
}

fn durable_restart_keeps_acknowledged_writes_at(shards: usize) {
    let ds = Dataset::build(&DatasetConfig::small(100, 23)).expect("dataset");
    let dir = scratch_dir(&format!("restart-{shards}"));
    let start = |expect_resume: bool| {
        let (service, recovery) = start_durable_service(&ds, &dir, shards);
        assert_eq!(recovery.len(), if expect_resume { shards } else { 0 });
        (service, recovery)
    };

    let (marker, node, t) = marker_trajectory(&ds);
    let ingest_body = serde_json::to_string(&Content::Map(vec![(
        "insert".to_string(),
        Content::Seq(vec![t]),
    )]))
    .unwrap();
    let query = format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":0.2,"k":1}}"#,
        node.0, marker.0
    );
    let top_id = |addr| {
        let (code, body) = post(addr, "/topk", &query);
        assert_eq!(code, 200, "{body:?}");
        let result = body.get("result").unwrap();
        let top = &result.get("matches").unwrap().as_seq().unwrap()[0];
        as_u64(top.get("id")).expect("match id")
    };

    let (service, _) = start(false);
    let (code, reply) = post(service.local_addr(), "/ingest", &ingest_body);
    assert_eq!(code, 200, "{reply:?}");
    let inserted = reply.get("inserted").unwrap().as_seq().unwrap();
    let acked = as_u64(Some(&inserted[0])).expect("inserted id");
    assert_eq!(top_id(service.local_addr()), acked);
    drop(service);

    let (service, recovery) = start(true);
    let replayed: u64 = recovery.iter().map(|r| r.replayed_batches).sum();
    assert_eq!(replayed, 1);
    assert_eq!(
        top_id(service.local_addr()),
        acked,
        "the acknowledged insert must survive the restart"
    );
    // every shard's recovery is in the restarted server's journal, ahead
    // of anything the server did afterwards
    let (code, reply) = post(service.local_addr(), "/ingest", r#"{"retire":[0]}"#);
    assert_eq!(code, 200, "{reply:?}");
    let names = journal_names(service.local_addr());
    let first_publish = names.iter().position(|n| n == "snapshot_published");
    let first_publish = first_publish.expect("the ingest published");
    for event in ["plan_chosen", "recovery_completed"] {
        let at: Vec<usize> = (0..names.len()).filter(|&i| names[i] == event).collect();
        assert_eq!(at.len(), shards, "one {event} per shard: {names:?}");
        assert!(at.iter().all(|&i| i < first_publish), "{names:?}");
    }
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: retiring an id the store never issued used to reach
/// `assert!` in `EpochManager::retire` on the default server and kill the
/// HTTP worker; with `--wal-dir` the record was logged first, the panic
/// poisoned the facade, and the directory never reopened. Now it is a 400
/// before anything is applied, on every backend.
#[test]
fn unknown_retire_is_a_clean_400_on_the_default_servers() {
    let check = |addr: SocketAddr, ds: &Dataset| -> u64 {
        // more bad requests than there are HTTP workers to lose
        for _ in 0..6 {
            let (code, reply) = post(addr, "/ingest", r#"{"retire":[999999]}"#);
            assert_eq!(code, 400, "{reply:?}");
            let err = serde_json::to_string(reply.get("error").expect("error field")).unwrap();
            assert!(err.contains("999999"), "{err}");
        }
        // an unknown id rejects the whole request: its insert is not applied
        let (_, _, t) = marker_trajectory(ds);
        let body = serde_json::to_string(&Content::Map(vec![
            ("insert".to_string(), Content::Seq(vec![t.clone()])),
            (
                "retire".to_string(),
                Content::Seq(vec![Content::U64(999_999)]),
            ),
        ]))
        .unwrap();
        let (code, reply) = post(addr, "/ingest", &body);
        assert_eq!(code, 400, "{reply:?}");
        // the service keeps answering and keeps ingesting
        let (code, body) = post(addr, "/topk", r#"{"locations":[0],"keywords":[],"k":1}"#);
        assert_eq!(code, 200, "{body:?}");
        let body = serde_json::to_string(&Content::Map(vec![
            ("insert".to_string(), Content::Seq(vec![t])),
            ("retire".to_string(), Content::Seq(vec![Content::U64(1)])),
        ]))
        .unwrap();
        let (code, reply) = post(addr, "/ingest", &body);
        assert_eq!(code, 200, "{reply:?}");
        assert_eq!(as_u64(reply.get("retired")), Some(1));
        let inserted = reply.get("inserted").unwrap().as_seq().unwrap();
        assert_eq!(
            as_u64(Some(&inserted[0])),
            Some(ds.store.len() as u64),
            "the rejected request's insert took no id"
        );
        as_u64(Some(&inserted[0])).unwrap()
    };

    let (service, ds) = start_service(60, 41, ServiceConfig::default());
    check(service.local_addr(), &ds);
    drop(service);

    let dir = scratch_dir("unknown_retire");
    let (service, _) = start_durable_service(&ds, &dir, 1);
    let acked = check(service.local_addr(), &ds);
    drop(service);
    // nothing unreplayable reached the log: the directory reopens with
    // the acknowledged batch
    let (service, recovery) = start_durable_service(&ds, &dir, 1);
    assert_eq!(recovery[0].replayed_batches, 2);
    let (marker, node, _) = marker_trajectory(&ds);
    let query = format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":0.2,"k":1}}"#,
        node.0, marker.0
    );
    let (code, body) = post(service.local_addr(), "/topk", &query);
    assert_eq!(code, 200, "{body:?}");
    let top = &body.get("result").unwrap().get("matches").unwrap();
    assert_eq!(as_u64(top.as_seq().unwrap()[0].get("id")), Some(acked));
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn observability_and_error_paths_surface_over_http() {
    let (service, _ds) = start_service(80, 3, ServiceConfig::default());
    let addr = service.local_addr();

    // A couple of requests so the counters move.
    let (code, _) = http(addr, "POST", "/search", "{not json");
    assert_eq!(code, 400);
    let (code, _) = http(addr, "POST", "/search", r#"{"queries":[]}"#);
    assert_eq!(code, 400);
    let (code, _) = http(addr, "POST", "/nope", "{}");
    assert_eq!(code, 404);
    let (code, _) = http(addr, "PUT", "/search", "{}");
    assert_eq!(code, 405);
    let (code, _) = http(addr, "POST", "/join", r#"{"theta":"high"}"#);
    assert_eq!(code, 400);

    let (code, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    uots::obs::validate_prometheus_text(&metrics).expect("valid exposition");
    assert!(
        metrics.contains("uots_serve_requests_total"),
        "service counters exported"
    );
    assert!(
        metrics.contains("uots_serve_errors_total"),
        "error counter exported"
    );
    // the default sizes the accept loop to the machine, and says so
    assert_eq!(ServiceConfig::default().http_threads, cores_at_least_two());
    let workers = format!("uots_serve_http_workers {}", cores_at_least_two());
    assert!(
        metrics.lines().any(|l| l == workers),
        "{workers}:\n{metrics}"
    );

    let (code, index) = http(addr, "GET", "/", "");
    assert_eq!(code, 200);
    assert!(index.contains("/search"));
}

#[test]
fn malformed_requests_get_bounded_clean_json_errors() {
    let (service, _ds) = start_service(40, 29, ServiceConfig::default());
    let addr = service.local_addr();

    // An oversized Content-Length is refused up front — the server never
    // buffers the body, it answers a JSON 413 immediately.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /search HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        8 * 1024 * 1024
    )
    .expect("send oversized request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(
        raw.starts_with("HTTP/1.1 413"),
        "oversized body must answer 413 without waiting for it: {raw}"
    );
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let content: Content = serde_json::from_str(body.trim()).expect("413 body is JSON");
    assert!(content.get("error").is_some(), "413 carries a JSON error");

    // Garbage bytes: a JSON 400, never a hang or a bare-text reply.
    let (code, content) = post(addr, "/search", "{definitely not json");
    assert_eq!(code, 400);
    assert!(content.get("error").is_some(), "400 carries a JSON error");

    // Unknown paths: a JSON 404 naming the path, POST and GET alike.
    let (code, content) = post(addr, "/no/such/path", "{}");
    assert_eq!(code, 404);
    let err = serde_json::to_string(content.get("error").expect("404 error field")).unwrap();
    assert!(err.contains("/no/such/path"), "404 names the path: {err}");
    let (code, text) = http(addr, "GET", "/missing", "");
    assert_eq!(code, 404);
    let content: Content = serde_json::from_str(text.trim()).expect("GET 404 body is JSON");
    assert!(
        content.get("error").is_some(),
        "GET 404 carries a JSON error"
    );

    // Inserts naming a keyword or vertex the dataset does not have: a
    // JSON 400 before anything is logged or applied — and the service
    // keeps answering (such an insert used to panic the publish).
    for bad in [
        r#"{"insert":[{"samples":[{"node":0,"time":1.0}],"keywords":[4000000]}]}"#,
        r#"{"insert":[{"samples":[{"node":4000000,"time":1.0}],"keywords":[]}]}"#,
    ] {
        let (code, content) = post(addr, "/ingest", bad);
        assert_eq!(code, 400, "{content:?}");
        let err = serde_json::to_string(content.get("error").expect("error field")).unwrap();
        assert!(err.contains("insert 0") && err.contains("4000000"), "{err}");
    }
    let (code, _) = post(addr, "/topk", r#"{"locations":[0],"keywords":[],"k":1}"#);
    assert_eq!(code, 200);

    // Unsupported methods: a JSON 405 naming the method.
    let (code, text) = http(addr, "DELETE", "/search", "{}");
    assert_eq!(code, 405);
    let content: Content = serde_json::from_str(text.trim()).expect("405 body is JSON");
    let err = serde_json::to_string(content.get("error").expect("405 error field")).unwrap();
    assert!(err.contains("DELETE"), "405 names the method: {err}");
}

fn start_cluster_service(
    trips: usize,
    seed: u64,
    shards: usize,
    cfg: ServiceConfig,
) -> (QueryService, Dataset) {
    let ds = Dataset::build(&DatasetConfig::small(trips, seed)).expect("dataset");
    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let cluster = ShardedCluster::with_metrics(
        Arc::new(ds.network.clone()),
        &ds.store,
        ds.vocab.len(),
        shards,
        Partitioner::Hash,
        Some(&registry),
        Some(&journal),
    );
    let obs = ObsState::new()
        .with_registry(registry)
        .with_journal(journal)
        .with_sampler(TailSampler::new(64));
    let service =
        QueryService::start("127.0.0.1:0", Arc::new(cluster), obs, cfg).expect("bind service");
    (service, ds)
}

#[test]
fn sharded_service_answers_bit_identically_and_reports_shard_epochs() {
    let (service, ds) = start_cluster_service(150, 7, 4, ServiceConfig::default());
    let addr = service.local_addr();
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 6,
            ..Default::default()
        },
    );
    for (i, s) in specs.into_iter().enumerate() {
        let k = 1 + i % 4;
        let json = query_json(&s.locations, s.keywords.ids(), 0.5, k);
        let q = UotsQuery::with_options(
            s.locations,
            s.keywords,
            Vec::new(),
            QueryOptions {
                k,
                ..QueryOptions::default()
            },
        )
        .unwrap();
        let want = direct_matches(&ds, &q);
        let (code, body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
        assert_eq!(code, 200, "case {i}: {body:?}");
        let got = body.get("results").unwrap().as_seq().unwrap()[0]
            .get("matches")
            .expect("matches");
        assert_eq!(
            &want, got,
            "case {i}: 4-shard /search diverged from the unsharded engine"
        );
        // sharded responses expose the per-shard cut and coordinator effort
        let epochs = body.get("epochs").expect("epochs").as_seq().unwrap();
        assert_eq!(epochs.len(), 4, "one epoch per shard");
        assert!(body.get("shards_cut").is_some(), "coordinator effort");
        let planned = body.get("planned").unwrap().as_seq().unwrap();
        let shards = planned[0].get("shards").expect("per-shard plans");
        assert_eq!(shards.as_seq().unwrap().len(), 4, "one plan per shard");
        // /topk must agree with /search
        let (code, body) = post(addr, "/topk", &json);
        assert_eq!(code, 200, "case {i}: {body:?}");
        let got = body.get("result").unwrap().get("matches").expect("matches");
        assert_eq!(&want, got, "case {i}: 4-shard /topk diverged");
    }
}

/// A cluster `/search` batch runs its queries across the batch workers
/// (each query walks its shards on one thread): results come back in
/// submission order, a batch past `max_batch` is shed whole with 429, the
/// same request twice reports the same coordinator effort, and `/metrics`
/// carries the per-shard outcome counters and the sharing ratio.
#[test]
fn sharded_batches_run_on_the_batch_workers_in_submission_order() {
    let cfg = ServiceConfig {
        batch_threads: 3,
        max_batch: 8,
        ..ServiceConfig::default()
    };
    let (service, ds) = start_cluster_service(150, 11, 4, cfg);
    let addr = service.local_addr();
    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 9,
            ..Default::default()
        },
    );
    let (mut bodies, mut wants) = (Vec::new(), Vec::new());
    for (i, s) in specs.into_iter().enumerate() {
        let k = 1 + i % 3;
        bodies.push(query_json(&s.locations, s.keywords.ids(), 0.3, k));
        let opts = QueryOptions {
            weights: uots::Weights::lambda(0.3).unwrap(),
            k,
            ..QueryOptions::default()
        };
        let q = UotsQuery::with_options(s.locations, s.keywords, Vec::new(), opts).unwrap();
        wants.push(direct_matches(&ds, &q));
    }
    let batch = format!(r#"{{"queries":[{}]}}"#, bodies[..8].join(","));
    let (code, first) = post(addr, "/search", &batch);
    assert_eq!(code, 200, "{first:?}");
    let results = first.get("results").unwrap().as_seq().unwrap();
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(Some(&wants[i]), r.get("matches"), "slot {i} out of order");
    }
    let (_, second) = post(addr, "/search", &batch);
    assert_eq!(
        as_u64(first.get("shards_cut")),
        as_u64(second.get("shards_cut")),
        "identical requests must report identical effort"
    );

    let over = format!(r#"{{"queries":[{}]}}"#, bodies.join(","));
    let (code, reply) = post(addr, "/search", &over);
    assert_eq!(code, 429, "{reply:?}");
    assert!(reply.get("error").is_some());

    let (code, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    for needle in [
        "uots_cluster_queries_total 16",
        r#"uots_cluster_settles_total{kind="live"}"#,
        r#"uots_cluster_settles_total{kind="replayed"}"#,
        r#"uots_cluster_shard_cutoffs_total{shard="0"}"#,
        r#"uots_cluster_shard_cancellations_total{shard="3"}"#,
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }
}

#[test]
fn sharded_ingest_publishes_cut_visible_to_search_and_join() {
    let (service, ds) = start_cluster_service(100, 13, 4, ServiceConfig::default());
    let addr = service.local_addr();
    let epoch0 = service.current_epoch();

    let marker = KeywordId(u32::try_from(ds.vocab.len()).unwrap() - 1);
    let node = NodeId(0);
    let t = Trajectory::new(
        vec![
            Sample { node, time: 60.0 },
            Sample {
                node: NodeId(1),
                time: 120.0,
            },
        ],
        KeywordSet::from_ids([marker]),
    )
    .expect("valid trajectory");
    let ingest_body = serde_json::to_string(&Content::Map(vec![
        ("insert".to_string(), Content::Seq(vec![t.serialize()])),
        ("retire".to_string(), Content::Seq(vec![Content::U64(0)])),
    ]))
    .unwrap();
    let (code, reply) = post(addr, "/ingest", &ingest_body);
    assert_eq!(code, 200, "{reply:?}");
    let epoch1 = as_u64(reply.get("epoch")).expect("epoch in reply");
    assert!(epoch1 > epoch0, "publish must advance the cluster epoch");
    let inserted = reply.get("inserted").unwrap().as_seq().unwrap();
    // the coordinator assigns the unsharded engine's sequential global id
    assert_eq!(as_u64(Some(&inserted[0])), Some(ds.store.len() as u64));
    assert!(reply.get("epochs").is_some(), "ingest reports the new cut");
    // every shard reports its swap to the one journal
    let (code, journal) = http(addr, "GET", "/journal?n=200", "");
    assert_eq!(code, 200);
    assert_eq!(
        journal.matches(r#""name":"snapshot_published""#).count(),
        4,
        "one epoch swap per shard:\n{journal}"
    );

    // the ingested trajectory wins its own query through the coordinator
    let query = format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":0.2,"k":1}}"#,
        node.0, marker.0
    );
    let (code, body) = post(addr, "/topk", &query);
    assert_eq!(code, 200, "{body:?}");
    let matches = body
        .get("result")
        .unwrap()
        .get("matches")
        .unwrap()
        .as_seq()
        .unwrap();
    let top = serde_json::to_string(&matches[0]).unwrap();
    assert!(
        top.contains(&format!("{}", ds.store.len())),
        "ingested trajectory must win its own query: {top}"
    );
    // retiring an unknown global id is a clean 400
    let (code, reply) = post(addr, "/ingest", r#"{"retire":[999999]}"#);
    assert_eq!(code, 400, "{reply:?}");
    assert!(reply.get("error").is_some());

    // /join answers over the merged live cut with global pair ids
    let (code, body) = post(addr, "/join", r#"{"theta":0.9,"lambda":0.5}"#);
    assert_eq!(code, 200, "{body:?}");
    assert!(body.get("pairs").unwrap().as_seq().is_some());
    assert!(body.get("completeness").is_some());
    assert!(body.get("epochs").is_some(), "join reports the cut");
}

#[test]
fn join_endpoint_answers_with_pairs_and_certificate() {
    let (service, _ds) = start_service(60, 17, ServiceConfig::default());
    let addr = service.local_addr();
    let (code, body) = post(addr, "/join", r#"{"theta":0.9,"lambda":0.5}"#);
    assert_eq!(code, 200, "{body:?}");
    assert!(body.get("pairs").unwrap().as_seq().is_some());
    assert!(body.get("completeness").is_some());
    assert!(body.get("epoch").is_some());
}

/// `POST /admin/shutdown` alone — no `shutdown()` after it — stops the
/// service: the handler wakes every worker blocked in `accept()`, and
/// `join` (what `uots-serve`'s main thread sits in) returns.
#[test]
fn admin_shutdown_drains_the_workers() {
    let (mut service, _ds) = start_service(60, 19, ServiceConfig::default());
    let addr = service.local_addr();
    let (code, body) = post(addr, "/admin/shutdown", "");
    assert_eq!(code, 200, "{body:?}");
    assert_eq!(body.get("stopping"), Some(&Content::Bool(true)));
    service.join();
    std::net::TcpListener::bind(addr).expect("every worker exited: the port is free");
    service.shutdown(); // idempotent after the fact
}

/// All workers of an idle service sit in a blocking `accept()`; `shutdown`
/// must wake and join them promptly (the sleep-poll this replaced noticed
/// the flag within 2 ms; a blocked worker notices nothing unless woken).
#[test]
fn shutdown_of_an_idle_service_joins_within_a_second() {
    let (mut service, _ds) = start_service(40, 19, ServiceConfig::default());
    let addr = service.local_addr();
    let (code, _) = post(addr, "/topk", r#"{"locations":[0],"keywords":[],"k":1}"#);
    assert_eq!(code, 200);
    let start = std::time::Instant::now();
    service.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    std::net::TcpListener::bind(addr).expect("the port is released");
}

/// What `http_threads` defaults to: one worker per core the process may
/// run on, never fewer than two.
fn cores_at_least_two() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// More simultaneous connections than workers: the surplus waits in the
/// listener's backlog and every one is answered — no wake-up is lost, at
/// one worker, at two, and at the default.
#[test]
fn more_simultaneous_connections_than_workers_are_all_answered() {
    let mut sizes = vec![1, 2, cores_at_least_two()];
    sizes.dedup();
    for http_threads in sizes {
        let cfg = ServiceConfig {
            http_threads,
            ..ServiceConfig::default()
        };
        let (service, _ds) = start_service(60, 37, cfg);
        let addr = service.local_addr();
        let clients = http_threads + 3;
        let gate = Arc::new(std::sync::Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    // every client is connected before any of them sends
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    gate.wait();
                    let body = r#"{"locations":[0,5],"keywords":[1],"k":2}"#;
                    write!(
                        stream,
                        "POST /topk HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .expect("send");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut raw = String::new();
                    stream.read_to_string(&mut raw).expect("read response");
                    raw
                })
            })
            .collect();
        for h in handles {
            let raw = h.join().expect("client thread");
            assert!(raw.starts_with("HTTP/1.1 200"), "{http_threads}: {raw}");
        }
    }
}

/// One worker per core leaves no spare for a peer that connects and says
/// nothing. The backlog is first in, first out, so with a silent peer
/// queued per worker ahead of it, a real request is accepted only once a
/// read timeout (2 s) has given a worker back — and is then answered, not
/// dropped and not refused.
#[test]
fn a_request_behind_silent_peers_is_answered_once_a_read_times_out() {
    let cfg = ServiceConfig::default();
    let workers = cfg.http_threads;
    let (service, _ds) = start_service(60, 37, cfg);
    let addr = service.local_addr();
    let silent: Vec<TcpStream> = (0..workers)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let start = std::time::Instant::now();
    let (code, reply) = post(addr, "/topk", r#"{"locations":[0,5],"keywords":[1],"k":2}"#);
    let waited = start.elapsed();
    assert_eq!(code, 200, "{reply:?}");
    assert!(reply.get("result").is_some(), "{reply:?}");
    // it did wait for a worker: every one was inside a silent peer's read
    assert!(waited >= Duration::from_millis(1500), "{waited:?}");
    drop(silent);
}

// ---------- the consistent cut under concurrent cross-shard ingest ----------

fn epochs_of(reply: &Content) -> Vec<u64> {
    let epochs = reply.get("epochs").expect("epochs").as_seq().unwrap();
    epochs.iter().map(|e| as_u64(Some(e)).unwrap()).collect()
}

/// One writer posts 40 eight-insert batches — sequential global ids, so
/// every batch touches every shard and every shard publishes — while two
/// readers loop `/topk`. A reader must only ever see the seed cut or a cut
/// some `/ingest` reply reported, never the per-shard swaps in between;
/// its cuts must not go backwards; and what it is answered must be
/// `BruteForce` over exactly the cut it names. An implementation that
/// reads the shards' snapshot pointers one by one fails the first.
fn readers_see_whole_cuts_under_concurrent_ingest(service: &QueryService, ds: &Dataset) {
    const BATCHES: usize = 40;
    let addr = service.local_addr();
    let donors: Vec<Trajectory> = (0..BATCHES * 8)
        .map(|i| {
            ds.store
                .get(TrajectoryId((i % ds.store.len()) as u32))
                .clone()
        })
        .collect();
    // the unsharded twin: `twin[i]` is the state after `i` batches
    let manager = uots::EpochManager::new(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
    );
    let mut twin = vec![manager.snapshot()];
    for batch in donors.chunks(8) {
        manager.apply(batch.iter().cloned().map(uots::Mutation::Insert));
        twin.push(manager.publish());
    }
    let specs = workload::generate(
        ds,
        &workload::WorkloadConfig {
            num_queries: 4,
            ..Default::default()
        },
    );
    let queries: Vec<(String, UotsQuery)> = specs
        .into_iter()
        .map(|s| {
            let json = query_json(&s.locations, s.keywords.ids(), 0.5, 3);
            let opts = QueryOptions {
                k: 3,
                ..QueryOptions::default()
            };
            let q = UotsQuery::with_options(s.locations, s.keywords, Vec::new(), opts).unwrap();
            (json, q)
        })
        .collect();

    let seed_cut = epochs_of(&post(addr, "/topk", &queries[0].0).1);
    let writing = std::sync::atomic::AtomicBool::new(true);
    let (reported, seen) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let (queries, writing) = (&queries, &writing);
                scope.spawn(move || {
                    // (cut, query, matches) of every reply
                    let mut seen: Vec<(Vec<u64>, usize, Content)> = Vec::new();
                    let mut last_round = false;
                    while !last_round {
                        last_round = !writing.load(std::sync::atomic::Ordering::SeqCst);
                        let i = (seen.len() + r) % queries.len();
                        let (code, reply) = post(addr, "/topk", &queries[i].0);
                        assert_eq!(code, 200, "{reply:?}");
                        let matches = reply.get("result").unwrap().get("matches").unwrap();
                        seen.push((epochs_of(&reply), i, matches.clone()));
                    }
                    seen
                })
            })
            .collect();
        let mut reported = vec![seed_cut.clone()];
        for (b, batch) in donors.chunks(8).enumerate() {
            let inserts = batch.iter().map(|t| t.serialize()).collect();
            let body = Content::Map(vec![("insert".to_string(), Content::Seq(inserts))]);
            let (code, reply) = post(addr, "/ingest", &serde_json::to_string(&body).unwrap());
            assert_eq!(code, 200, "{reply:?}");
            let ids = reply.get("inserted").unwrap().as_seq().unwrap();
            let first = (ds.store.len() + 8 * b) as u64;
            assert_eq!(as_u64(ids.first()), Some(first), "sequential global ids");
            reported.push(epochs_of(&reply));
        }
        writing.store(false, std::sync::atomic::Ordering::SeqCst);
        let seen: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (reported, seen)
    });

    for (r, seen) in seen.iter().enumerate() {
        assert!(seen.len() >= 2, "reader {r} never got to read");
        assert_eq!(
            seen.last().unwrap().0,
            reported[BATCHES],
            "reader {r}: final cut"
        );
        let mut at = 0; // cuts are reported in order and never repeat
        for (n, (cut, query, matches)) in seen.iter().enumerate() {
            let Some(ahead) = reported[at..].iter().position(|c| c == cut) else {
                panic!("reader {r}, reply {n}: cut {cut:?} is torn or went backwards (last {at})");
            };
            at += ahead;
            // every 7th reply, and every one that saw a fresh cut
            if n % 7 == 0 || ahead > 0 {
                let db = twin[at].database();
                let want = BruteForce.run(&db, &queries[*query].1).expect("oracle");
                let want = normalized(want.serialize().get("matches").unwrap());
                assert_eq!(&want, matches, "reader {r}, reply {n}, cut {cut:?}");
            }
        }
    }
}

#[test]
fn volatile_readers_see_whole_cuts_under_concurrent_ingest() {
    let (service, ds) = start_cluster_service(120, 43, 4, ServiceConfig::default());
    readers_see_whole_cuts_under_concurrent_ingest(&service, &ds);
}

#[test]
fn durable_readers_see_whole_cuts_under_concurrent_ingest() {
    let ds = Dataset::build(&DatasetConfig::small(120, 43)).expect("dataset");
    let dir = scratch_dir("whole_cuts");
    let registry = MetricsRegistry::new();
    let cluster = ShardedDurable::create(
        Arc::new(ds.network.clone()),
        &ds.store,
        &ds.vocab,
        &dir,
        2,
        WalConfig::default(),
        None,
        Some(&registry),
    )
    .expect("create cluster");
    let obs = ObsState::new().with_registry(registry);
    let cfg = ServiceConfig::default();
    let service =
        QueryService::start_durable("127.0.0.1:0", cluster, obs, cfg).expect("bind service");
    readers_see_whole_cuts_under_concurrent_ingest(&service, &ds);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable cluster's cuts count into the same `uots_cluster_*` series
/// as a volatile one's. They used to be assembled with no handles at all:
/// a `--wal-dir` server exported none of them.
#[test]
fn durable_service_exports_the_volatile_families_plus_its_own() {
    let (volatile, ds) = start_cluster_service(100, 23, 2, ServiceConfig::default());
    let dir = scratch_dir("cluster_metrics");
    let (durable, _) = start_durable_service(&ds, &dir, 2);
    let families = |addr: SocketAddr| -> (std::collections::BTreeSet<String>, String) {
        let query = r#"{"locations":[0,5],"keywords":[1],"lambda":0.5,"k":3}"#;
        let (code, body) = post(addr, "/topk", query);
        assert_eq!(code, 200, "{body:?}");
        let (code, text) = http(addr, "GET", "/metrics", "");
        assert_eq!(code, 200);
        let names = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        let names = names.map(|l| l.split(' ').next().unwrap().to_string());
        (names.collect(), text)
    };
    let (volatile_families, _) = families(volatile.local_addr());
    let (durable_families, text) = families(durable.local_addr());

    let value = |series: &str| -> u64 {
        let line = text.lines().find_map(|l| l.strip_prefix(series));
        let line = line.unwrap_or_else(|| panic!("no {series} in:\n{text}"));
        line.trim().parse().expect("an integer sample")
    };
    assert!(value("uots_cluster_queries_total ") >= 1);
    assert!(value(r#"uots_cluster_settles_total{kind="live"} "#) > 0);
    let live: u64 = (0..2)
        .map(|s| value(&format!(r#"uots_cluster_shard_live{{shard="{s}"}} "#)))
        .sum();
    assert_eq!(live, ds.store.len() as u64);

    let own = [
        "uots_wal_",
        "uots_durable_",
        "uots_recovery_",
        "uots_checkpoint",
    ];
    let shared: std::collections::BTreeSet<String> = durable_families
        .into_iter()
        .filter(|f| !own.iter().any(|prefix| f.starts_with(prefix)))
        .collect();
    assert_eq!(shared, volatile_families);
    drop((volatile, durable));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------- the `uots-serve` binary: start-up over a `--wal-dir` ----------

/// A spawned `uots-serve`, killed on drop.
struct ServeProc {
    child: Child,
    /// Kept open: the server prints after it started listening too.
    stdout: BufReader<ChildStdout>,
    /// What the server printed before it started listening.
    preamble: String,
}

impl ServeProc {
    /// Reads the preamble up to the listening line; the bound address.
    fn wait_listening(&mut self) -> SocketAddr {
        loop {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).expect("read stdout");
            assert!(n > 0, "uots-serve exited early:\n{}", self.preamble);
            if let Some(addr) = line.trim().strip_prefix("uots-serve: listening on http://") {
                return addr.parse().expect("listen address");
            }
            self.preamble.push_str(&line);
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn serve_command(data: &Path, wal_dir: &Path, shards: Option<usize>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uots-serve"));
    cmd.arg("--data").arg(data).arg("--wal-dir").arg(wal_dir);
    cmd.args(["--listen", "127.0.0.1:0", "--http-threads", "2"]);
    if let Some(n) = shards {
        cmd.args(["--shards", &n.to_string()]);
    }
    cmd
}

fn spawn_serve(data: &Path, wal_dir: &Path, shards: Option<usize>) -> (ServeProc, SocketAddr) {
    let mut child = serve_command(data, wal_dir, shards)
        .stdout(Stdio::piped())
        .spawn()
        .expect("uots-serve spawns");
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut server = ServeProc {
        child,
        stdout,
        preamble: String::new(),
    };
    let addr = server.wait_listening();
    (server, addr)
}

/// Start-up must refuse the directory: non-zero exit, both shard counts
/// named, nothing created beside the lineage already there.
fn assert_refuses(data: &Path, wal_dir: &Path, shards: Option<usize>, on_disk: usize) {
    let before = std::fs::read_dir(wal_dir).unwrap().count();
    let out = serve_command(data, wal_dir, shards)
        .output()
        .expect("uots-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "must exit non-zero: {stderr}");
    assert!(
        stderr.contains(&format!("{on_disk}-shard lineage"))
            && stderr.contains(&format!("--shards is {}", shards.unwrap_or(1))),
        "{stderr}"
    );
    assert_eq!(std::fs::read_dir(wal_dir).unwrap().count(), before);
}

/// How many `recovery_completed` events a restarted server's `/journal`
/// holds — one per shard; none when the journal is attached too late.
fn recoveries_journalled(addr: SocketAddr) -> usize {
    let names = journal_names(addr);
    names.iter().filter(|n| *n == "recovery_completed").count()
}

/// A flat `--wal-dir` as the unsharded server has always written it
/// resumes under the default (`--shards 1`) start-up with its acked
/// writes; any other `--shards` over it is refused, and so is a
/// `shard-<s>/` directory opened with another count — which used to serve
/// half the data under the wrong global ids, or start a fresh lineage
/// beside the acknowledged one.
#[test]
fn wal_dir_layout_decides_resume_and_a_mismatched_shard_count_is_refused() {
    let cfg = DatasetConfig::small(100, 23);
    let ds = Dataset::build(&cfg).expect("dataset");
    let root = scratch_dir("layout");
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("city.uotsds");
    uots::datagen::persist::save_file(&ds, &cfg, &data).expect("save dataset");

    // the flat layout, written the way the unsharded server writes it
    let flat = root.join("flat");
    let (marker, node, t) = marker_trajectory(&ds);
    let acked = {
        let (mut durable, recovery) =
            DurableIngest::open(&ds, &flat, WalConfig::default(), None, None, None)
                .expect("create");
        assert!(recovery.is_none());
        let t = <Trajectory as serde::Deserialize>::deserialize(&t).expect("round-trips");
        let id = durable.ingest(t).expect("ingest");
        durable.publish().expect("publish");
        u64::from(id.0)
    };
    assert_refuses(&data, &flat, Some(2), 1);
    assert!(!flat.join("shard-0").exists());

    let (server, addr) = spawn_serve(&data, &flat, None);
    assert!(
        server.preamble.contains("recovered 1 batches"),
        "{}",
        server.preamble
    );
    assert_eq!(recoveries_journalled(addr), 1);
    let query = format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":0.2,"k":1}}"#,
        node.0, marker.0
    );
    let (code, body) = post(addr, "/topk", &query);
    assert_eq!(code, 200, "{body:?}");
    let top = &body.get("result").unwrap().get("matches").unwrap();
    assert_eq!(as_u64(top.as_seq().unwrap()[0].get("id")), Some(acked));
    assert_eq!(body.get("epochs").unwrap().as_seq().unwrap().len(), 1);
    drop(server);

    // a sharded lineage: created by the server itself, journal attached
    let sharded = root.join("sharded");
    let (server, addr) = spawn_serve(&data, &sharded, Some(4));
    let (code, reply) = post(addr, "/ingest", r#"{"retire":[0]}"#);
    assert_eq!(code, 200, "{reply:?}");
    let (code, journal) = http(addr, "GET", "/journal?n=200", "");
    assert_eq!(code, 200);
    assert!(
        journal.contains(r#""name":"snapshot_published""#),
        "a sharded durable server journals its epoch swaps:\n{journal}"
    );
    drop(server);
    for wrong in [None, Some(2), Some(8)] {
        assert_refuses(&data, &sharded, wrong, 4);
    }
    let (server, addr) = spawn_serve(&data, &sharded, Some(4));
    assert!(
        server.preamble.contains("recovered 4 shards"),
        "{}",
        server.preamble
    );
    assert_eq!(recoveries_journalled(addr), 4);
    drop(server);
    std::fs::remove_dir_all(&root).unwrap();
}
