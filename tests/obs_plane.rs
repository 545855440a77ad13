//! Integration tests for the operational observability plane: the event
//! journal's causal chain under storage faults, the live exposition
//! endpoint's agreement with in-process state, and concurrent registry
//! exposition under mutation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use uots::core::wal::WalConfig;
use uots::durable::{DurableIngest, IngestState};
use uots::obs::{
    validate_prometheus_text, AcceptLoop, EventJournal, HttpRequest, JournalEvent, MetricsRegistry,
    ObsState, Stopper, TailSampler,
};
use uots::prelude::*;
use uots::storage::fault::{Fault, FaultFs, OpKind, ScriptedFault};
use uots::storage::{RetryPolicy, StdFs, StorageBackend};
use uots::{Mutation, Recorder, Trajectory};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uots_obs_plane")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn donor(ds: &Dataset, i: u32) -> Trajectory {
    ds.store.get(TrajectoryId(i)).clone()
}

fn durable_over(
    ds: &Dataset,
    dir: &std::path::Path,
    backend: Arc<dyn StorageBackend>,
    registry: &MetricsRegistry,
    journal: Option<&EventJournal>,
) -> DurableIngest {
    DurableIngest::create(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.clone(),
        dir,
        WalConfig::default(),
        None,
        Some(registry),
        backend,
        RetryPolicy::without_backoff(),
        journal,
    )
    .unwrap()
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
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

fn queries_for(ds: &Dataset, n: usize) -> Vec<UotsQuery> {
    workload::generate(ds, &workload::WorkloadConfig::default())
        .into_iter()
        .cycle()
        .take(n)
        .map(|spec| UotsQuery::new(spec.locations.clone(), spec.keywords.clone()).unwrap())
        .collect()
}

/// The acceptance scenario: fault injection drives `DurableIngest` to
/// read-only, the journal holds the full causal chain *in order*, and
/// the live endpoint agrees with the in-process `status()` snapshot.
#[test]
fn degraded_transition_journals_causal_chain_and_serves_it_live() {
    let ds = Dataset::build(&DatasetConfig::small(16, 5)).unwrap();
    let dir = tmpdir("causal-chain");
    // Sync ops under FsyncPolicy::EveryBatch: #0 = segment header at
    // create, #1 = the healthy batch's record fsync, #2 = the doomed
    // batch's first attempt, #3 = the fresh segment's header during
    // heal, #4 = the one permanent-budget retry. Failing #2 and #4
    // exhausts the permanent budget (permanent_attempts = 2).
    let fs = FaultFs::scripted(
        11,
        vec![
            ScriptedFault {
                op: OpKind::Sync,
                nth: 2,
                fault: Fault::FsyncLoss,
            },
            ScriptedFault {
                op: OpKind::Sync,
                nth: 4,
                fault: Fault::FsyncLoss,
            },
        ],
    );
    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let mut ingest = durable_over(&ds, &dir, fs, &registry, Some(&journal));

    // live endpoint over the same registry + journal, with a status
    // document the test updates the way the CLI does after each publish
    let status_doc = Arc::new(Mutex::new(String::from("{}")));
    let reader = Arc::clone(&status_doc);
    let status = move || reader.lock().unwrap().clone();
    let state = ObsState::new(
        registry.clone(),
        journal.clone(),
        TailSampler::default(),
        status,
    );
    let no_routes = |_: &HttpRequest, _: &Stopper| None;
    let mut server = AcceptLoop::serve("127.0.0.1:0", 1, "uots-obs-test", &state, no_routes)
        .expect("bind obs endpoint");
    let addr = server.local_addr();

    // healthy batch: acked, journal quiet, /status agrees
    ingest
        .apply(vec![Mutation::Insert(donor(&ds, 0))])
        .expect("healthy batch is acked");
    let healthy_json = serde_json::to_string(&ingest.status()).unwrap();
    *status_doc.lock().unwrap() = healthy_json.clone();
    let (code, body) = http_get(addr, "/status");
    assert_eq!(code, 200);
    assert_eq!(body, healthy_json);
    assert!(body.contains("\"state\":\"healthy\""), "{body}");

    // doomed batch: both fsync attempts fail, ingest degrades
    let err = ingest
        .apply(vec![Mutation::Insert(donor(&ds, 1))])
        .unwrap_err();
    assert!(ingest.is_degraded(), "not degraded after {err}");
    assert!(matches!(
        ingest.status().state,
        IngestState::Degraded { .. }
    ));
    let degraded_json = serde_json::to_string(&ingest.status()).unwrap();
    *status_doc.lock().unwrap() = degraded_json.clone();

    // the journal holds the causal chain in order: first failed fsync,
    // seal, retry; second failed fsync, seal; budget exhausted; degraded
    let events = journal.recent(usize::MAX);
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.component == "wal" || e.component == "durable")
        .map(|e| e.name.as_str())
        .collect();
    let chain = [
        "fsync_failure",
        "segment_sealed",
        "append_retry",
        "fsync_failure",
        "segment_sealed",
        "retries_exhausted",
        "degraded_read_only",
    ];
    let mut pos = 0;
    for want in chain {
        match names[pos..].iter().position(|n| *n == want) {
            Some(i) => pos += i + 1,
            None => panic!("missing {want} after index {pos} in journal: {names:?}"),
        }
    }

    // the live endpoints agree with the final in-process snapshot
    let (code, body) = http_get(addr, "/status");
    assert_eq!(code, 200);
    assert_eq!(body, degraded_json);
    assert!(body.contains("\"state\":\"degraded\""), "{body}");

    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    validate_prometheus_text(&metrics).expect("served exposition validates");
    assert!(
        metrics
            .lines()
            .any(|l| l.trim() == "uots_durable_degraded 1"),
        "degraded gauge not exposed:\n{metrics}"
    );

    let (code, jbody) = http_get(addr, "/journal?n=256");
    assert_eq!(code, 200);
    let lines: Vec<&str> = jbody.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty());
    let parsed: Vec<JournalEvent> = lines
        .iter()
        .map(|l| serde_json::from_str::<JournalEvent>(l).expect("journal line parses"))
        .collect();
    assert!(
        parsed.iter().any(|e| e.name == "degraded_read_only"),
        "served journal is missing the degradation event"
    );

    server.shutdown();
}

/// Satellite: exposition snapshots must stay internally consistent while
/// a query stream and a durable ingest mutate the same registry.
#[test]
fn concurrent_exposition_always_validates() {
    let ds = Dataset::build(&DatasetConfig::small(40, 7)).unwrap();
    let db = uots::db(&ds);
    let queries = queries_for(&ds, 24);
    let registry = MetricsRegistry::new();
    let dir = tmpdir("concurrent");
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let renderer = s.spawn(|| {
            let mut renders = 0u64;
            while !done.load(Ordering::Relaxed) {
                let text = registry.render_prometheus();
                validate_prometheus_text(&text).expect("mid-mutation snapshot validates");
                let json = registry.render_json();
                assert!(json.starts_with('{'), "render_json produced: {json}");
                renders += 1;
            }
            renders
        });

        let searches = s.spawn(|| {
            let algo = Expansion::default();
            for q in queries.iter().cycle().take(4 * queries.len()) {
                let mut rec = Recorder::phases_only(algo.name());
                let result = algo
                    .run_recorded(&db, q, &RunControl::unbounded(), &mut rec)
                    .expect("query runs");
                registry.observe_phases(
                    "uots_query_phase_duration_ns",
                    "Per-query time attributed to each search phase (ns)",
                    &result.metrics.phases,
                );
            }
        });

        let ingest = s.spawn(|| {
            let mut durable = durable_over(&ds, &dir, Arc::new(StdFs), &registry, None);
            for i in 0..12 {
                durable
                    .apply(vec![Mutation::Insert(donor(&ds, i % 8))])
                    .expect("durable batch");
                if i % 4 == 3 {
                    durable.publish().expect("publish");
                }
            }
        });

        searches.join().expect("search thread");
        ingest.join().expect("ingest thread");
        done.store(true, Ordering::Relaxed);
        let renders = renderer.join().expect("renderer thread");
        assert!(renders > 0, "renderer never observed the registry");
    });

    // the final snapshot still validates and saw both mutators
    let text = registry.render_prometheus();
    validate_prometheus_text(&text).unwrap();
    assert!(text.contains("uots_query_phase_duration_ns"), "{text}");
    assert!(text.contains("uots_durable_retries_total"), "{text}");
}
