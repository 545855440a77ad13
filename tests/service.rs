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
use uots::storage::StdFs;

use proptest::prelude::*;
use serde::{Content, Serialize};
use uots::cluster::{shard_dir, ShardedDurable};
use uots::core::planner::AlgorithmKind;
use uots::core::testing::corrupt;
use uots::core::wal;
use uots::obs::{EventJournal, MetricsRegistry, ObsState, TailSampler};
use uots::prelude::*;
use uots::serve::{QueryService, ServiceConfig};
use uots::{workload, Dataset, DatasetConfig, KeywordSet, QueryOptions, UotsQuery, WalConfig};
use uots_core::algorithms::Algorithm;
use uots_core::ShardedCluster;
use uots_text::KeywordId;
use uots_trajectory::{Sample, Trajectory};

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    raw_http(addr, request.as_bytes(), false)
}

/// Sends `request` verbatim — half-closing after it when asked — and
/// returns the status code and body of the answer.
fn raw_http(addr: SocketAddr, request: &[u8], half_close: bool) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send request");
    if half_close {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    }
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

/// The `matches` subtree of a direct run of the served default, as
/// serialized `Content` — the bit-exact expectation for the HTTP answer.
fn direct_matches(ds: &Dataset, q: &UotsQuery) -> Content {
    let db = uots::db(ds);
    let result = AlgorithmKind::Expansion.run(&db, q).expect("direct run");
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

/// Every `planned[i].shards[s]` entry of a reply, in order.
fn plans(body: &Content) -> Vec<Content> {
    let planned = body.get("planned").expect("planned").as_seq().unwrap();
    planned
        .iter()
        .flat_map(|p| p.get("shards").expect("shards").as_seq().unwrap().to_vec())
        .collect()
}

fn plan(algorithm: &str, reason: &str) -> Content {
    Content::Map(vec![
        ("algorithm".to_string(), Content::Str(algorithm.to_string())),
        ("reason".to_string(), Content::Str(reason.to_string())),
    ])
}

/// A body without `algorithm` runs the served default, expansion; one
/// that names a kind runs that kind and gets the same answer.
#[test]
fn request_level_force_matches_the_planner_through_http() {
    let (service, ds) = start_service(120, 11, ServiceConfig::default());
    let addr = service.local_addr();
    let spec = workload::generate(&ds, &workload::WorkloadConfig::default())
        .into_iter()
        .next()
        .unwrap();
    let json = query_json(&spec.locations, spec.keywords.ids(), 0.5, 3);
    let (code, default_body) = post(addr, "/search", &format!(r#"{{"queries":[{json}]}}"#));
    assert_eq!(code, 200);
    assert_eq!(plans(&default_body), [plan("expansion", "default")]);
    let want = default_body.get("results").unwrap().as_seq().unwrap()[0]
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
        assert_eq!(plans(&body), [plan(algo, "forced")]);
    }
    let (code, body) = post(
        addr,
        "/search",
        &format!(r#"{{"algorithm":"nope","queries":[{json}]}}"#),
    );
    assert_eq!(code, 400, "{body:?}");
    assert!(format!("{body:?}").contains("nope"), "{body:?}");
}

/// Regression: the `algorithm` field was parsed after admission, so a
/// full service shed a body naming an unknown algorithm with 429 (and
/// counted it shed), and a tenant over its soft ring counted it degraded.
/// It is a 400 before admission: neither counter moves.
#[test]
fn an_unknown_algorithm_is_refused_before_admission() {
    for (cfg, counter) in [
        (
            ServiceConfig {
                max_inflight: 0,
                ..ServiceConfig::default()
            },
            "uots_serve_shed_total",
        ),
        (
            ServiceConfig {
                tenant_inflight: 0,
                ..ServiceConfig::default()
            },
            "uots_serve_degraded_total",
        ),
    ] {
        let (service, ds) = start_service(40, 3, cfg);
        let addr = service.local_addr();
        let spec = workload::generate(&ds, &workload::WorkloadConfig::default())
            .into_iter()
            .next()
            .unwrap();
        let json = query_json(&spec.locations, spec.keywords.ids(), 0.5, 3);
        let (code, body) = post(
            addr,
            "/search",
            &format!(r#"{{"algorithm":"nope","queries":[{json}]}}"#),
        );
        assert_eq!(code, 400, "{counter}: {body:?}");
        assert!(format!("{body:?}").contains("nope"), "{body:?}");
        assert_eq!(counter_value(addr, counter), 0, "{counter}");
    }
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
        ds.clone(),
        dir,
        shards,
        WalConfig::default(),
        None,
        Some(&registry),
        Some(&journal),
    )
    .expect("open wal dir");
    let obs = obs_state(registry, journal);
    let service = QueryService::start("127.0.0.1:0", cluster.into(), obs, ServiceConfig::default())
        .expect("bind service");
    (service, recovery)
}

/// What a test server exposes: `registry`, `journal`, a sampler of its
/// own and an empty `/status` document.
fn obs_state(registry: MetricsRegistry, journal: EventJournal) -> ObsState {
    ObsState::new(registry, journal, TailSampler::new(64), || "{}".into())
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
    // the acknowledged body, its insert and its retire one record
    let (service, recovery) = start_durable_service(&ds, &dir, 1);
    assert_eq!(recovery[0].replayed_batches, 1);
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

/// The value of the unlabelled counter `name` on `/metrics`.
fn counter_value(addr: SocketAddr, name: &str) -> u64 {
    let (code, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    let prefix = format!("{name} ");
    let line = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
    let line = line.unwrap_or_else(|| panic!("no {name} in:\n{text}"));
    line.trim().parse().expect("an integer sample")
}

/// Regression: `/ingest` deserialized trajectories without
/// `Trajectory::new`'s checks. An out-of-day time panicked the next
/// publish (and every later `/ingest` answered "ingest disabled"); on a
/// durable server decreasing times were acked and logged, then refused by
/// the WAL decoder at recovery, which cut the log there and lost the
/// acknowledged writes behind it. Each is now a 400 before anything is
/// logged, on both default servers.
#[test]
fn invalid_trajectories_are_refused_before_the_log() {
    let bad = [
        r#"{"samples":[],"keywords":[1]}"#,
        r#"{"samples":[{"node":0,"time":-1.0}],"keywords":[1]}"#,
        r#"{"samples":[{"node":0,"time":86400.5}],"keywords":[1]}"#,
        r#"{"samples":[{"node":0,"time":90.0},{"node":1,"time":30.0}],"keywords":[1]}"#,
    ];
    let check = |addr: SocketAddr| {
        for t in bad {
            let body = format!(r#"{{"insert":[{t}],"publish":true}}"#);
            let (code, reply) = post(addr, "/ingest", &body);
            assert_eq!(code, 400, "{t}: {reply:?}");
            let err = serde_json::to_string(reply.get("error").expect("error field")).unwrap();
            assert!(err.contains("insert 0"), "{t}: {err}");
        }
        let good = r#"{"insert":[{"samples":[{"node":0,"time":30.0},{"node":1,"time":30.0}],"keywords":[1]}]}"#;
        let (code, reply) = post(addr, "/ingest", good);
        assert_eq!(code, 200, "{reply:?}");
    };

    let (service, ds) = start_service(60, 43, ServiceConfig::default());
    check(service.local_addr());
    drop(service);

    let dir = scratch_dir("invalid_inserts");
    let (service, _) = start_durable_service(&ds, &dir, 2);
    let addr = service.local_addr();
    let appends = counter_value(addr, "uots_wal_appends_total");
    check(addr);
    assert_eq!(
        counter_value(addr, "uots_wal_appends_total"),
        appends + 1,
        "only the valid insert reached the log"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's write body: copies of the first 8 dataset trips, and
/// retires of ids 0 and 1 — on two shards, each shard gets 4 inserts and
/// 1 retire.
fn eight_inserts_two_retires(ds: &Dataset) -> String {
    let inserts = (0..8).map(|i| ds.store.get(TrajectoryId(i)).serialize());
    serde_json::to_string(&Content::Map(vec![
        ("insert".to_string(), Content::Seq(inserts.collect())),
        (
            "retire".to_string(),
            Content::Seq(vec![Content::U64(0), Content::U64(1)]),
        ),
    ]))
    .unwrap()
}

/// A body is one WAL record — and under `--fsync batch` one fsync — per
/// shard it touches, not one per mutation: the 8-insert + 2-retire body
/// moves both counters by 2 on two shards and by 1 on one.
#[test]
fn an_ingest_body_is_one_wal_record_per_shard_it_touches() {
    let ds = Dataset::build(&DatasetConfig::small(60, 59)).expect("dataset");
    let body = eight_inserts_two_retires(&ds);
    for shards in [1u64, 2] {
        let dir = scratch_dir(&format!("records-{shards}"));
        let (service, _) = start_durable_service(&ds, &dir, shards as usize);
        let addr = service.local_addr();
        let counters = ["uots_wal_appends_total", "uots_wal_fsyncs_total"];
        let before = counters.map(|c| counter_value(addr, c));
        let (code, reply) = post(addr, "/ingest", &body);
        assert_eq!(code, 200, "{reply:?}");
        assert_eq!(as_u64(reply.get("retired")), Some(2));
        for (c, before) in counters.iter().zip(before) {
            let moved = counter_value(addr, c) - before;
            assert_eq!(moved, shards, "{c} on {shards} shard(s)");
        }
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The ids a server's published cut holds live: a `/topk` with a `k`
/// past the store answers every live trajectory.
fn live_ids(addr: SocketAddr) -> std::collections::BTreeSet<u64> {
    let (code, reply) = post(
        addr,
        "/topk",
        r#"{"locations":[0],"keywords":[1],"k":100000}"#,
    );
    assert_eq!(code, 200, "{reply:?}");
    let result = reply.get("result").expect("result");
    let matches = result.get("matches").and_then(Content::as_seq);
    let matches = matches.expect("matches");
    matches
        .iter()
        .map(|m| as_u64(m.get("id")).expect("id"))
        .collect()
}

/// `/ingest`'s `retired` counts the retires that hit a live trajectory,
/// at any shard count, volatile or durable: a retire of an id already
/// retired counts 0, the same id twice in one body counts 1, and a retire
/// of the id the body's own insert receives counts 1 and leaves that id
/// dead after the publish — and, durable, after a restart.
#[test]
fn ingest_counts_the_retires_that_hit_a_live_trajectory() {
    fn check(addr: SocketAddr, ds: &Dataset, label: &str) -> std::collections::BTreeSet<u64> {
        let ingest = |body: &str| {
            let (code, reply) = post(addr, "/ingest", body);
            assert_eq!(code, 200, "{label} {body}: {reply:?}");
            reply
        };
        let retired = |body: &str| as_u64(ingest(body).get("retired"));
        assert_eq!(retired(r#"{"retire":[3]}"#), Some(1), "{label}");
        assert_eq!(retired(r#"{"retire":[3]}"#), Some(0), "{label}: retired");
        assert_eq!(retired(r#"{"retire":[5,5]}"#), Some(1), "{label}: twice");
        // the first insert receives the first id past the seed
        let own = ds.store.len() as u64;
        let (_, _, t) = marker_trajectory(ds);
        let body = serde_json::to_string(&Content::Map(vec![
            ("insert".to_string(), Content::Seq(vec![t])),
            ("retire".to_string(), Content::Seq(vec![Content::U64(own)])),
        ]))
        .unwrap();
        let reply = ingest(&body);
        assert_eq!(as_u64(reply.get("retired")), Some(1), "{label}: own insert");
        let inserted = reply.get("inserted").and_then(Content::as_seq);
        assert_eq!(inserted.map(|ids| as_u64(ids.first())), Some(Some(own)));
        let want = (0..own).filter(|&g| g != 3 && g != 5).collect();
        assert_eq!(live_ids(addr), want, "{label}");
        want
    }
    for shards in [1, 2, 4] {
        let (volatile, ds) = start_cluster_service(40, 53, shards, ServiceConfig::default());
        check(
            volatile.local_addr(),
            &ds,
            &format!("volatile, {shards} shard(s)"),
        );
        drop(volatile);

        let dir = scratch_dir(&format!("retired-{shards}"));
        let (durable, _) = start_durable_service(&ds, &dir, shards);
        let want = check(
            durable.local_addr(),
            &ds,
            &format!("durable, {shards} shard(s)"),
        );
        drop(durable);
        let (reopened, recovery) = start_durable_service(&ds, &dir, shards);
        assert_eq!(recovery.len(), shards);
        assert_eq!(live_ids(reopened.local_addr()), want, "{shards} shard(s)");
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// After a crash each shard keeps all of a body's mutations for it or
/// none of them. One 8-insert + 2-retire `/ingest` over two durable shards
/// is one WAL record per shard: intact, each shard replays its part as one
/// record; with the tail of shard 1's log torn, shard 1 loses exactly its
/// part — 4 inserts and a retire — and shard 0 keeps all of its own.
#[test]
fn a_crash_keeps_all_or_none_of_each_shards_part_of_a_body() {
    let ds = Dataset::build(&DatasetConfig::small(40, 61)).expect("dataset");
    let body = eight_inserts_two_retires(&ds);
    // shard s holds seed locals 0..20 and the body's 4 inserts at 20..24;
    // the body retires local 0 on each
    let acked = |dir: &Path| {
        let (service, _) = start_durable_service(&ds, dir, 2);
        let (code, reply) = post(service.local_addr(), "/ingest", &body);
        assert_eq!(code, 200, "{reply:?}");
    };
    let holds_its_part = |cut: &uots_core::ClusterSnapshot, s: usize| {
        let shard = cut.shard(s);
        shard.store().len() == 24 && !shard.live().is_live(TrajectoryId(0))
    };

    let intact = scratch_dir("atomic-intact");
    acked(&intact);
    let (cluster, reports) =
        ShardedDurable::open(&intact, 2, WalConfig::default(), None, None).expect("reopen");
    for (s, r) in reports.iter().enumerate() {
        assert!(r.wal_corruption.is_none(), "shard {s}: {r:?}");
        assert_eq!(r.replayed_batches, 1, "shard {s}: one record: {r:?}");
        assert!(holds_its_part(&cluster.snapshot(), s), "shard {s}");
    }
    drop(cluster);

    let torn = scratch_dir("atomic-torn");
    acked(&torn);
    let segments = wal::list_segments(&StdFs, &shard_dir(&torn, 1)).expect("list segments");
    let tail = segments.last().expect("shard 1 has a segment");
    let len = std::fs::metadata(tail).unwrap().len();
    corrupt::truncate_file(tail, len - 7).unwrap();
    let (cluster, reports) =
        ShardedDurable::open(&torn, 2, WalConfig::default(), None, None).expect("reopen");
    assert!(reports[0].wal_corruption.is_none(), "{:?}", reports[0]);
    assert_eq!(reports[0].replayed_batches, 1, "{:?}", reports[0]);
    assert!(reports[1].wal_corruption.is_some(), "{:?}", reports[1]);
    assert_eq!(reports[1].replayed_batches, 0, "{:?}", reports[1]);
    let cut = cluster.snapshot();
    assert!(holds_its_part(&cut, 0), "shard 0 keeps all of its part");
    let shard1 = cut.shard(1);
    assert_eq!(shard1.store().len(), 20, "none of shard 1's inserts");
    assert!(shard1.live().is_live(TrajectoryId(0)), "nor its retire");
    assert_eq!(cut.num_live(), 40 + 4 - 1);
    drop(cluster);
    for dir in [intact, torn] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Regression: a keyword list with repeats was stored as sent (the
/// vendored derive skipped `KeywordSet::from_ids`), so `[7,7,2]` scored
/// 0.667 against `[7,2]` until a restart canonicalised it through the WAL
/// decoder. The same `/topk` now answers identically before and after a
/// restart, and every acknowledged id survives it.
#[test]
fn duplicate_keywords_answer_the_same_across_a_durable_restart() {
    let ds = Dataset::build(&DatasetConfig::small(100, 47)).expect("dataset");
    assert!(ds.vocab.len() > 7, "keyword 7 is in the vocabulary");
    let dir = scratch_dir("duplicate_keywords");
    let insert = |addr, keywords: &str| -> u64 {
        let body = format!(
            r#"{{"insert":[{{"samples":[{{"node":0,"time":60.0}},{{"node":1,"time":90.0}}],"keywords":{keywords}}}]}}"#
        );
        let (code, reply) = post(addr, "/ingest", &body);
        assert_eq!(code, 200, "{reply:?}");
        as_u64(Some(&reply.get("inserted").unwrap().as_seq().unwrap()[0])).expect("id")
    };
    let query = r#"{"locations":[0],"keywords":[7,2],"lambda":0.2,"k":3}"#;
    let matches = |addr| {
        let (code, body) = post(addr, "/topk", query);
        assert_eq!(code, 200, "{body:?}");
        normalized(body.get("result").unwrap().get("matches").unwrap())
    };

    let (service, _) = start_durable_service(&ds, &dir, 2);
    let addr = service.local_addr();
    let acked = [
        insert(addr, "[7,7,2]"),
        insert(addr, "[3]"),
        insert(addr, "[2,7]"),
    ];
    let before = matches(addr);
    let textual =
        before.as_seq().unwrap().iter().find_map(|m| {
            (as_u64(m.get("id")) == Some(acked[0])).then(|| m.get("textual").cloned())
        });
    assert_eq!(textual.flatten(), Some(Content::F64(1.0)), "{before:?}");
    drop(service);

    let (service, _) = start_durable_service(&ds, &dir, 2);
    let addr = service.local_addr();
    assert_eq!(matches(addr), before, "the restart changed the answer");
    let retire = format!(r#"{{"retire":{acked:?}}}"#);
    let (code, reply) = post(addr, "/ingest", &retire);
    assert_eq!(
        code, 200,
        "every acked id is known after the restart: {reply:?}"
    );
    assert_eq!(as_u64(reply.get("retired")), Some(acked.len() as u64));
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

    // the router's own index, the same on every loop
    let (code, index) = http(addr, "GET", "/", "");
    assert_eq!(code, 200);
    assert!(index.contains("/metrics"), "{index}");
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

/// `uots_serve_errors_total` counts every 4xx but a 429 exactly once,
/// whoever answers it — the reader, the router or a route — and a 429
/// counts on `uots_serve_shed_total` alone.
#[test]
fn every_4xx_but_a_shed_counts_one_error() {
    let counters = |addr| {
        let names = ["uots_serve_errors_total", "uots_serve_shed_total"];
        names.map(|name| counter_value(addr, name))
    };
    let (service, _ds) = start_service(40, 31, ServiceConfig::default());
    let addr = service.local_addr();
    let oversized = format!("POST /topk HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 8 << 20);
    let cases = [
        ("malformed start line", "BOGUS\r\n\r\n".to_string(), 400),
        ("oversized Content-Length", oversized, 413),
        (
            "bad JSON",
            "POST /topk HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope".to_string(),
            400,
        ),
        (
            "unknown path",
            "GET /nope HTTP/1.1\r\n\r\n".to_string(),
            404,
        ),
        (
            "wrong method",
            "PUT /topk HTTP/1.1\r\n\r\n".to_string(),
            405,
        ),
    ];
    for (what, request, want) in cases {
        let [errors, shed] = counters(addr);
        let (code, body) = raw_http(addr, request.as_bytes(), false);
        assert_eq!(code, want, "{what}: {body}");
        assert_eq!(counters(addr), [errors + 1, shed], "{what}");
    }
    drop(service);

    let cfg = ServiceConfig {
        max_inflight: 0,
        ..ServiceConfig::default()
    };
    let (service, _ds) = start_service(40, 31, cfg);
    let addr = service.local_addr();
    let [errors, shed] = counters(addr);
    let (code, body) = http(addr, "POST", "/topk", r#"{"locations":[0],"keywords":[]}"#);
    assert_eq!(code, 429, "{body}");
    assert_eq!(counters(addr), [errors, shed + 1]);
}

/// One `/topk` with a huge `k` used to abort the process: the collector
/// reserved `k + 1` slots up front (`k = u64::MAX` only survived because
/// the `+ 1` wrapped), and an allocation failure is no panic a worker can
/// catch. A 2-shard service answers both with every live trajectory and
/// goes on serving.
#[test]
fn huge_k_answers_every_live_trajectory_and_the_service_keeps_serving() {
    let (service, ds) = start_cluster_service(60, 41, 2, ServiceConfig::default());
    let addr = service.local_addr();
    for k in [100_000_000_000u64, u64::MAX] {
        let body = format!(r#"{{"locations":[0],"keywords":[1],"k":{k}}}"#);
        let (code, reply) = post(addr, "/topk", &body);
        assert_eq!(code, 200, "k = {k}: {reply:?}");
        let result = reply.get("result").expect("result");
        let matches = result.get("matches").and_then(Content::as_seq);
        assert_eq!(
            matches.map(<[Content]>::len),
            Some(ds.store.len()),
            "k = {k}"
        );
    }
    let (code, reply) = post(addr, "/topk", r#"{"locations":[0],"keywords":[1],"k":3}"#);
    assert_eq!(code, 200, "{reply:?}");
}

/// The 2-shard service every hostile body of the proptest below goes to,
/// with its live count.
fn hostile_target() -> &'static (QueryService, usize) {
    static TARGET: std::sync::OnceLock<(QueryService, usize)> = std::sync::OnceLock::new();
    TARGET.get_or_init(|| {
        let (service, ds) = start_cluster_service(48, 43, 2, ServiceConfig::default());
        (service, ds.store.len())
    })
}

/// The `uots_serve_http_workers` gauge of the service at `addr`.
fn http_workers(addr: SocketAddr) -> String {
    let (code, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    metrics
        .lines()
        .find(|l| l.starts_with("uots_serve_http_workers "))
        .expect("worker gauge")
        .to_string()
}

/// A JSON value of the wrong type for any field.
const WRONG_TYPES: [&str; 5] = [r#""3""#, "[[1]]", r#"{"a":1}"#, "true", "null"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Hostile query bodies — `k` at 0, 1, the live count ± 1 and huge;
    /// `lambda` outside [0, 1]; zero, negative and extreme decays;
    /// `times` without a temporal weight; keyword ids past the
    /// vocabulary; duplicate and out-of-range locations; fields of the
    /// wrong JSON type — sent to `/topk` and `/search` of one 2-shard
    /// service. Every reply is a 200 or a JSON 400: no dropped
    /// connection, no 5xx, no worker lost, and `GET /` still answers.
    #[test]
    fn hostile_query_bodies_get_200_or_a_json_400(
        locations in proptest::collection::vec((0usize..24, 0u64..u64::MAX), 1..5),
        keywords in proptest::collection::vec((0usize..4, 0u32..u32::MAX), 0..4),
        (k_pick, k_any) in (0usize..8, 0u64..u64::MAX),
        (lambda, decay_km, decay_s) in (0usize..16, 0usize..20, 0usize..20),
        (times, wrong) in (0usize..8, (0usize..48, 0usize..5)),
        search in 0usize..6,
    ) {
        let (service, live) = hostile_target();
        let addr = service.local_addr();
        let workers = http_workers(addr);
        let live = *live as u64;
        // each field is invalid only now and then, so that about a fifth
        // of the bodies still reach the engine with their extremes.
        // 48 trips of the small city: 900 vertices, so ids past it and
        // past u32; `0` next to another location is a duplicate
        let location = |(pick, any): (usize, u64)| match pick {
            0..=19 => any % 900,
            20 => 0,
            21 | 22 => 900 + any % 1_000_000,
            _ => any,
        };
        let keyword = |(pick, any): (usize, u32)| match pick {
            0 | 1 => any % 16,
            2 => 1_000 + any % 1_000,
            _ => any,
        };
        let ks = [0, 1, live - 1, live, live + 1, 100_000_000_000, u64::MAX, k_any];
        let lambdas = [
            "0", "0.3", "0.5", "1", "-0.0", "0.9", "0.1", "0.7", "0.2", "0.4", "0.6", "0.8", "-1",
            "1.0000001", "1e308", "-1e308",
        ];
        // `1e999` parses to +∞
        let decays = [
            "1", "1800", "5e-324", "1e-300", "1e300", "1e999", "0.5", "2", "0.1", "10", "3", "60",
            "600", "7200", "1e-6", "1e6", "0.25", "4", "0", "-1",
        ];
        let times_field = [None, None, None, None, None, None, Some("[3600.0]"), Some("[-5, 1e308, 90000]")];
        let list = |v: Vec<String>| format!("[{}]", v.join(","));
        let mut fields = vec![
            ("locations", list(locations.into_iter().map(|l| location(l).to_string()).collect())),
            ("keywords", list(keywords.into_iter().map(|k| keyword(k).to_string()).collect())),
            ("k", ks[k_pick].to_string()),
            ("lambda", lambdas[lambda].to_string()),
            ("decay_km", decays[decay_km].to_string()),
            ("decay_s", decays[decay_s].to_string()),
        ];
        if let Some(t) = times_field[times] {
            fields.push(("times", t.to_string()));
        }
        // one field in eight of the wrong JSON type
        if let Some(field) = fields.get_mut(wrong.0) {
            field.1 = WRONG_TYPES[wrong.1].to_string();
        }
        let object = format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(name, value)| format!(r#""{name}":{value}"#))
                .collect::<Vec<_>>()
                .join(",")
        );
        let (path, body) = match search {
            0..=2 => ("/topk", object),
            3 | 4 => ("/search", format!(r#"{{"queries":[{object},{object}]}}"#)),
            _ => ("/search", format!(r#"{{"queries":{object}}}"#)),
        };
        let (code, text) = http(addr, "POST", path, &body);
        let reply: Result<Content, _> = serde_json::from_str(&text);
        prop_assert!(code == 200 || code == 400, "{code} for {path} {body}: {text}");
        let reply = reply.unwrap_or_else(|e| panic!("non-JSON {code} for {body}: {e}\n{text}"));
        if code == 400 {
            prop_assert!(reply.get("error").is_some(), "{body}: {text}");
        }
        let (code, _) = http(addr, "GET", "/", "");
        prop_assert_eq!(code, 200, "GET / after {}", body);
        prop_assert_eq!(http_workers(addr), workers, "a worker was lost to {}", body);
    }
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
        ds.store.clone(),
        ds.vocab.len(),
        shards,
        Some(&registry),
        Some(&journal),
    );
    let obs = obs_state(registry, journal);
    let service = QueryService::start("127.0.0.1:0", cluster, obs, cfg).expect("bind service");
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
        let shards = shards.as_seq().unwrap();
        assert_eq!(shards.len(), 4, "one plan per shard");
        // the served default, listed once per shard
        assert_eq!(plans(&body), vec![plan("expansion", "default"); 4]);
        // /topk must agree with /search
        let (code, body) = post(addr, "/topk", &json);
        assert_eq!(code, 200, "case {i}: {body:?}");
        let got = body.get("result").unwrap().get("matches").expect("matches");
        assert_eq!(&want, got, "case {i}: 4-shard /topk diverged");
    }
}

/// A cluster `/search` batch runs its queries across the batch workers
/// (each query runs over all its shards on one thread): results come back
/// in submission order, a batch past `max_batch` is shed whole with 429,
/// the same request twice reports the same coordinator effort, and
/// `/metrics` carries the per-shard outcome counters and the live settles
/// — nothing is replayed between shards any more.
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
        r#"uots_cluster_shard_cutoffs_total{shard="0"}"#,
        r#"uots_cluster_shard_cancellations_total{shard="3"}"#,
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }
    let settles = metrics
        .lines()
        .filter(|l| l.starts_with("uots_cluster_settles_total{"))
        .count();
    assert_eq!(settles, 1, "one settles series, the live one:\n{metrics}");
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
    // a malformed decay is a 400, as on /search, not a join at the default
    for bad in [r#"{"decay_km":"far"}"#, r#"{"decay_s":"long"}"#] {
        let (code, body) = post(addr, "/join", bad);
        assert_eq!(code, 400, "{bad}: {body:?}");
    }
}

/// A live trip with more distinct vertices than the join's `max_sources`
/// (128) makes `/join` a 400 naming its global id — the id the client's
/// insert got, at every shard count, also with an earlier id retired.
/// Once it is retired it no longer counts: the join validates and probes
/// only the cut's live trajectories, and every shard count answers the
/// same pairs.
#[test]
fn join_skips_retired_trajectories_at_any_shard_count() {
    let join = r#"{"theta":0.6,"lambda":0.5}"#;
    let mut answers = Vec::new();
    for shards in [1, 2, 4] {
        let (service, ds) = start_cluster_service(40, 29, shards, ServiceConfig::default());
        let addr = service.local_addr();
        let (code, reply) = post(addr, "/ingest", r#"{"retire":[0]}"#);
        assert_eq!(code, 200, "{reply:?}");
        let wide = Trajectory::new(
            (0..129)
                .map(|v| Sample {
                    node: NodeId(v),
                    time: 60.0 * f64::from(v),
                })
                .collect(),
            KeywordSet::empty(),
        )
        .expect("valid trajectory");
        let insert = serde_json::to_string(&Content::Map(vec![(
            "insert".to_string(),
            Content::Seq(vec![wide.serialize()]),
        )]))
        .unwrap();
        let (code, reply) = post(addr, "/ingest", &insert);
        assert_eq!(code, 200, "{reply:?}");
        let (code, reply) = post(addr, "/join", join);
        assert_eq!(code, 400, "{shards} shard(s), wide trip live: {reply:?}");
        let Some(Content::Str(error)) = reply.get("error") else {
            panic!("{shards} shard(s): the 400 carries an error: {reply:?}");
        };
        let wide_id = format!("trajectory τ{} ", ds.store.len());
        assert!(error.contains(&wide_id), "{shards} shard(s): {error}");

        let retire = format!(r#"{{"retire":[{}]}}"#, ds.store.len());
        let (code, reply) = post(addr, "/ingest", &retire);
        assert_eq!(code, 200, "{reply:?}");
        let (code, reply) = post(addr, "/join", join);
        assert_eq!(code, 200, "{shards} shard(s), wide trip retired: {reply:?}");
        answers.push(reply.get("pairs").cloned().expect("pairs"));
    }
    assert_eq!(answers[0], answers[1], "1 and 2 shards join one live cut");
    assert_eq!(answers[0], answers[2], "1 and 4 shards join one live cut");
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
    let obs = obs_state(registry, EventJournal::default());
    let cfg = ServiceConfig::default();
    let service =
        QueryService::start("127.0.0.1:0", cluster.into(), obs, cfg).expect("bind service");
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

/// `uots-serve` over `data`; volatile when `wal_dir` is `None`.
fn serve_command(data: &Path, wal_dir: Option<&Path>, shards: Option<usize>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uots-serve"));
    cmd.arg("--data").arg(data);
    if let Some(dir) = wal_dir {
        cmd.arg("--wal-dir").arg(dir);
    }
    cmd.args(["--listen", "127.0.0.1:0", "--http-threads", "2"]);
    if let Some(n) = shards {
        cmd.args(["--shards", &n.to_string()]);
    }
    cmd
}

fn spawn_serve(
    data: &Path,
    wal_dir: Option<&Path>,
    shards: Option<usize>,
) -> (ServeProc, SocketAddr) {
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
    let out = serve_command(data, Some(wal_dir), shards)
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
    uots::datagen::persist::save_file(&uots::storage::StdFs, &ds, &cfg, &data)
        .expect("save dataset");

    // a flag start-up does not read is refused by name before anything is
    // created: a typo must not start a server nobody asked for
    let unread = root.join("unread");
    for (flag, value) in [
        ("--partitioner", "grid:8"),
        ("--shard", "4"),
        ("--max-inflight", "8"),
        ("--batch-threads", "2"),
    ] {
        let out = serve_command(&data, Some(&unread), None)
            .args([flag, value])
            .output()
            .expect("uots-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} must exit non-zero: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(!unread.exists());
    }

    // the flat layout, written the way the unsharded server writes it
    let flat = root.join("flat");
    let (marker, node, t) = marker_trajectory(&ds);
    let acked = {
        let (mut durable, recovery) = ShardedDurable::open_or_create(
            ds.clone(),
            &flat,
            1,
            WalConfig::default(),
            None,
            None,
            None,
        )
        .expect("create");
        assert!(recovery.is_empty());
        let t = <Trajectory as serde::Deserialize>::deserialize(&t).expect("round-trips");
        let id = durable.ingest(t).expect("ingest");
        durable.publish_all().expect("publish");
        u64::from(id.0)
    };
    assert_refuses(&data, &flat, Some(2), 1);
    assert!(!flat.join("shard-0").exists());

    let (server, addr) = spawn_serve(&data, Some(&flat), None);
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
    let (server, addr) = spawn_serve(&data, Some(&sharded), Some(4));
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
    let (server, addr) = spawn_serve(&data, Some(&sharded), Some(4));
    assert!(
        server.preamble.contains("recovered 4 shards"),
        "{}",
        server.preamble
    );
    assert_eq!(recoveries_journalled(addr), 4);
    drop(server);
    std::fs::remove_dir_all(&root).unwrap();
}

/// `uots-serve`'s `/status` reports the cut it serves — live
/// trajectories over all shards, the shard count and the per-shard
/// epochs — not the dataset it started from: at 1 and 2 shards, volatile
/// and `--wal-dir`, an `/ingest` of two inserts and one live retire moves
/// `trajectories` by one and `epochs` to what the reply named. An
/// `/ingest` the server cannot frame answers 400, counts one error and
/// publishes nothing.
#[test]
fn serve_status_reports_the_published_cut_and_unframed_ingests_publish_nothing() {
    let cfg = DatasetConfig::small(60, 61);
    let ds = Dataset::build(&cfg).expect("dataset");
    let root = scratch_dir("status");
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("city.uotsds");
    uots::datagen::persist::save_file(&uots::storage::StdFs, &ds, &cfg, &data)
        .expect("save dataset");
    let body = r#"{"insert":[{"samples":[{"node":0,"time":30.0}],"keywords":[1]},{"samples":[{"node":1,"time":60.0}],"keywords":[2]}],"retire":[0]}"#;
    let live = ds.store.len() as u64;
    let status = |addr| {
        let (code, text) = http(addr, "GET", "/status", "");
        assert_eq!(code, 200, "{text}");
        serde_json::from_str::<Content>(&text).expect("/status is JSON")
    };
    // each fits in the server's first 512-byte read, so nothing is left
    // unread when it answers and closes (unread bytes would reset the
    // connection under the answer)
    let ingest =
        |headers: String, body: &str| format!("POST /ingest HTTP/1.1\r\n{headers}\r\n{body}");
    let len = body.len();
    let unframed = [
        (ingest("Content-Length: abc\r\n".into(), body), false),
        (ingest("Content-Length: -5\r\n".into(), body), false),
        (
            ingest(
                format!("Content-Length: 0\r\nContent-Length: {len}\r\n"),
                body,
            ),
            false,
        ),
        (
            ingest(
                "Transfer-Encoding: chunked\r\n".into(),
                &format!("{len:x}\r\n{body}\r\n0\r\n\r\n"),
            ),
            false,
        ),
        (
            ingest(format!("Content-Length: {}\r\n", len + 100), body),
            true,
        ),
    ];
    for shards in [1usize, 2] {
        for durable in [false, true] {
            let wal = root.join(format!("wal-{shards}"));
            let what = format!("{shards} shard(s), durable: {durable}");
            let wal_dir = durable.then_some(wal.as_path());
            let (server, addr) = spawn_serve(&data, wal_dir, Some(shards));
            let before = status(addr);
            assert_eq!(as_u64(before.get("trajectories")), Some(live), "{what}");
            assert_eq!(as_u64(before.get("shards")), Some(shards as u64), "{what}");

            let (code, reply) = post(addr, "/ingest", body);
            assert_eq!(code, 200, "{what}: {reply:?}");
            assert_eq!(as_u64(reply.get("retired")), Some(1), "{what}");
            let after = status(addr);
            assert_eq!(as_u64(after.get("trajectories")), Some(live + 1), "{what}");
            assert_eq!(epochs_of(&after), epochs_of(&reply), "{what}");
            assert_ne!(epochs_of(&after), epochs_of(&before), "{what}");

            for (request, half_close) in &unframed {
                let errors = counter_value(addr, "uots_serve_errors_total");
                let (code, text) = raw_http(addr, request.as_bytes(), *half_close);
                assert_eq!(code, 400, "{what}: {request}: {text}");
                let moved = counter_value(addr, "uots_serve_errors_total") - errors;
                assert_eq!(moved, 1, "{what}: {request}");
                assert_eq!(status(addr), after, "{what}: {request} published");
            }
            drop(server);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

// ---------- the `uots-serve` binary: a volatile start-up ----------

/// A volatile `uots-serve` moves the loaded dataset's network and
/// trajectories into its cluster instead of copying them; in-process
/// services are handed clones, so only the binary takes that path. At one
/// shard and at four, fixed `/topk` bodies answer what `BruteForce`
/// answers over the dataset, before and after one `/ingest` that inserts,
/// retires and publishes.
#[test]
fn volatile_servers_answer_the_oracle_over_the_moved_dataset() {
    let cfg = DatasetConfig::small(150, 29);
    let ds = Dataset::build(&cfg).expect("dataset");
    let root = scratch_dir("moved");
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("city.uotsds");
    uots::datagen::persist::save_file(&StdFs, &ds, &cfg, &data).expect("save dataset");

    let specs = workload::generate(
        &ds,
        &workload::WorkloadConfig {
            num_queries: 6,
            ..Default::default()
        },
    );
    let (marker, node, t) = marker_trajectory(&ds);
    let mut shapes: Vec<(Vec<NodeId>, Vec<KeywordId>)> = specs
        .into_iter()
        .map(|s| (s.locations, s.keywords.ids().to_vec()))
        .collect();
    shapes.push((vec![node], vec![marker]));
    let cases: Vec<(String, UotsQuery)> = shapes
        .into_iter()
        .enumerate()
        .map(|(i, (locations, keywords))| {
            let (lambda, k) = ([0.2, 0.5, 0.8][i % 3], 1 + i % 5);
            let json = query_json(&locations, &keywords, lambda, k);
            let q = UotsQuery::with_options(
                locations,
                KeywordSet::from_ids(keywords),
                Vec::new(),
                QueryOptions {
                    weights: uots::Weights::lambda(lambda).unwrap(),
                    k,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
            (json, q)
        })
        .collect();

    // the oracle: the dataset as loaded, then with the body applied
    let body = serde_json::to_string(&Content::Map(vec![
        ("insert".to_string(), Content::Seq(vec![t.clone()])),
        ("retire".to_string(), Content::Seq(vec![Content::U64(0)])),
    ]))
    .unwrap();
    let oracle = uots::core::EpochManager::new(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
    );
    let answers = |snap: &uots::core::EpochSnapshot| -> Vec<Content> {
        let db = snap.database();
        let run = |q: &UotsQuery| BruteForce.run(&db, q).expect("oracle run").serialize();
        let matches = |q| normalized(run(q).get("matches").expect("matches field"));
        cases.iter().map(|(_, q)| matches(q)).collect()
    };
    let before = answers(&oracle.snapshot());
    let t = <Trajectory as serde::Deserialize>::deserialize(&t).expect("round-trips");
    let inserted = oracle.ingest(t);
    assert!(oracle.retire(TrajectoryId(0)));
    let after = answers(&oracle.publish());
    assert_ne!(before.last(), after.last(), "the insert wins its own query");

    let topk = |addr: SocketAddr, want: &[Content], what: &str| {
        for (i, ((json, _), want)) in cases.iter().zip(want).enumerate() {
            let (code, reply) = post(addr, "/topk", json);
            assert_eq!(code, 200, "{what}, case {i}: {reply:?}");
            let got = reply.get("result").and_then(|r| r.get("matches"));
            assert_eq!(got, Some(want), "{what}, case {i}: {json}");
        }
    };
    for shards in [1usize, 4] {
        let (server, addr) = spawn_serve(&data, None, Some(shards));
        topk(addr, &before, &format!("{shards} shard(s), as loaded"));
        let (code, reply) = post(addr, "/ingest", &body);
        assert_eq!(code, 200, "{shards} shard(s): {reply:?}");
        let ids = reply
            .get("inserted")
            .and_then(Content::as_seq)
            .expect("inserted");
        assert_eq!(
            ids,
            [Content::I64(i64::from(inserted.0))],
            "{shards} shard(s)"
        );
        assert_eq!(as_u64(reply.get("retired")), Some(1), "{shards} shard(s)");
        topk(
            addr,
            &after,
            &format!("{shards} shard(s), after the ingest"),
        );
        drop(server);
    }
    std::fs::remove_dir_all(&root).unwrap();
}
