//! End-to-end tests of the `uots` CLI binary: every subcommand plus the
//! error paths, driven through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn uots() -> Command {
    Command::new(env!("CARGO_BIN_EXE_uots"))
}

fn temp_dataset(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("uots_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn generate(path: &PathBuf) {
    let out = uots()
        .args([
            "generate", "--preset", "small", "--trips", "120", "--seed", "3", "--out",
        ])
        .arg(path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_and_unknown_command() {
    let out = uots().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("generate"));

    let out = uots().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_stats_query_join_pipeline() {
    let path = temp_dataset("pipeline.uotsds");
    generate(&path);
    assert!(path.exists());

    let out = uots()
        .args(["stats", "--data"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trajectories        : 120"), "{text}");

    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args([
            "--at", "2.0,2.0", "--at", "5.0,3.0", "--k", "2", "--lambda", "0.7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top 2 trips"), "{text}");
    assert!(text.contains("visited"), "{text}");

    let out = uots()
        .args(["join", "--data"])
        .arg(&path)
        .args(["--theta", "0.9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("similarity >= 0.9"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn query_rejects_bad_flags() {
    let path = temp_dataset("badflags.uotsds");
    generate(&path);

    // no --at place
    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--at"));

    // malformed coordinates
    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args(["--at", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // out-of-range lambda
    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args(["--at", "1,1", "--lambda", "7"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_dataset_file_is_a_clean_error() {
    let out = uots()
        .args(["stats", "--data", "/definitely/not/here.uotsds"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn corrupt_dataset_is_a_one_line_error() {
    let path = temp_dataset("corrupt.uotsds");
    std::fs::write(&path, b"this is not a uots dataset at all").unwrap();
    for cmd in ["stats", "query", "join"] {
        let mut c = uots();
        c.args([cmd, "--data"]).arg(&path);
        if cmd == "query" {
            c.args(["--at", "1,1"]);
        }
        let out = c.output().unwrap();
        assert!(!out.status.success(), "{cmd} must fail on garbage input");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{cmd}: {stderr}");
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "{cmd}: one-line diagnostic\n{stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_dataset_is_a_one_line_error() {
    let path = temp_dataset("whole.uotsds");
    generate(&path);
    let bytes = std::fs::read(&path).unwrap();
    let cut = temp_dataset("truncated.uotsds");
    std::fs::write(&cut, &bytes[..bytes.len() / 3]).unwrap();
    let out = uots().args(["stats", "--data"]).arg(&cut).output().unwrap();
    assert!(!out.status.success(), "truncated dataset must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "one-line diagnostic\n{stderr}"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut).ok();
}

#[test]
fn budget_flags_produce_best_effort_output() {
    let path = temp_dataset("budget.uotsds");
    generate(&path);

    // a zero-trajectory visit budget must trip immediately but still exit 0
    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args(["--at", "2.0,2.0", "--max-visited", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best-effort"), "{text}");
    assert!(text.contains("certified gap"), "{text}");

    // bad budget values are rejected
    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args(["--at", "1,1", "--deadline-ms", "soon"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));

    // the join accepts the same budget flags
    let out = uots()
        .args(["join", "--data"])
        .arg(&path)
        .args(["--theta", "0.9", "--max-visited", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("best-effort"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_and_trace_outputs_are_valid() {
    let path = temp_dataset("telemetry.uotsds");
    generate(&path);
    let prom = temp_dataset("telemetry.prom");
    let trace = temp_dataset("telemetry.trace.json");

    let out = uots()
        .args(["query", "--data"])
        .arg(&path)
        .args(["--at", "2.0,2.0", "--at", "5.0,3.0", "--metrics-out"])
        .arg(&prom)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase breakdown:"), "{text}");
    assert!(text.contains("network_expansion"), "{text}");

    // the Prometheus export passes the CLI's own validator
    let out = uots()
        .args(["check-metrics", "--file"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_text.contains("uots_query_phase_duration_ns"),
        "{prom_text}"
    );
    assert!(prom_text.contains("quantile=\"0.99\""), "{prom_text}");

    // the trace is well-formed JSON whose phase spans nest in the root
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"query\""), "{trace_text}");
    assert!(trace_text.contains("network_expansion"), "{trace_text}");

    // a corrupted export must fail validation
    std::fs::write(&prom, format!("{prom_text}uots_query_latency_us_count 2\n")).unwrap();
    let out = uots()
        .args(["check-metrics", "--file"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(!out.status.success(), "duplicate sample must be rejected");

    // the join writes its own exposition
    let out = uots()
        .args(["join", "--data"])
        .arg(&path)
        .args(["--theta", "0.95", "--metrics-out"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_text.contains("uots_join_phase_duration_ns"),
        "{prom_text}"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&prom).ok();
    std::fs::remove_file(&trace).ok();
}

/// `--no-cache` changes the work, never the output: the join goes through
/// the same entry point and writes the same metric families either way,
/// and a query ranks the same trips.
#[test]
fn no_cache_flag_changes_work_not_answers() {
    let path = temp_dataset("nocache.uotsds");
    generate(&path);
    let run = |args: &[&str], extra: &[&str]| -> String {
        let out = uots()
            .args(args)
            .args(extra)
            .arg("--data")
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let lines_with = |text: &str, needle: &str| -> Vec<String> {
        let hits = text.lines().filter(|l| l.contains(needle));
        hits.map(str::to_string).collect()
    };

    let mut pair_lines = Vec::new();
    for (name, extra) in [("cached", &[][..]), ("uncached", &["--no-cache"][..])] {
        let prom = temp_dataset(&format!("nocache-{name}.prom"));
        let prom_arg = prom.to_str().unwrap();
        let text = run(
            &["join", "--theta", "0.9", "--metrics-out", prom_arg],
            extra,
        );
        assert_eq!(text.contains("distance cache:"), name == "cached", "{text}");
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        for family in [
            "uots_join_pairs_total",
            "uots_join_latency_us",
            "uots_join_phase_duration_ns",
        ] {
            assert!(prom_text.contains(family), "{name}: {family}\n{prom_text}");
        }
        pair_lines.push(lines_with(&text, " ↔ "));
        std::fs::remove_file(&prom).ok();
    }
    assert!(!pair_lines[0].is_empty(), "θ = 0.9 joins some pairs");
    assert_eq!(pair_lines[0], pair_lines[1]);

    let query = ["query", "--at", "2.0,2.0", "--at", "5.0,3.0", "--k", "3"];
    let cached = run(&query, &[]);
    let uncached = run(&query, &["--no-cache"]);
    assert!(cached.contains("distance cache:"), "{cached}");
    assert!(!uncached.contains("distance cache:"), "{uncached}");
    assert!(cached.contains("  #1 "), "{cached}");
    assert_eq!(lines_with(&cached, "  #"), lines_with(&uncached, "  #"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn durable_ingest_and_recover_round_trip() {
    let path = temp_dataset("durable.uotsds");
    generate(&path);
    let wal_dir = temp_dataset("durable.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::create_dir_all(&wal_dir).unwrap();
    let script = temp_dataset("durable.script");
    std::fs::write(
        &script,
        "ingest 0 1 2\nretire 0\npublish\ningest 3 4 5\nretire 7\npublish\n",
    )
    .unwrap();

    // durable ingest: wal + checkpoint cadence + per-epoch verification
    let out = uots()
        .args(["ingest", "--data"])
        .arg(&path)
        .arg("--script")
        .arg(&script)
        .arg("--wal-dir")
        .arg(&wal_dir)
        .args(["--fsync", "batch", "--checkpoint-every", "2", "--verify"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("durable ingest"), "{text}");
    assert!(text.contains("wal durable through lsn 4"), "{text}");
    assert!(
        text.contains("verified against from-scratch rebuild"),
        "{text}"
    );
    let names: Vec<String> = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".uotsck")),
        "checkpoint cadence must have cut a checkpoint: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.ends_with(".seg")),
        "wal segments must exist: {names:?}"
    );

    // recovery reproduces the state and verifies against a rebuild
    let prom = temp_dataset("durable.prom");
    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&wal_dir)
        .args(["--data"])
        .arg(&path)
        .arg("--verify")
        .arg("--metrics-out")
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovered from checkpoint"), "{text}");
    assert!(text.contains("durable through lsn 4"), "{text}");
    assert!(
        text.contains("verified against from-scratch rebuild"),
        "{text}"
    );
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("uots_recovery_total"), "{prom_text}");

    // bad fsync policy is rejected up front
    let out = uots()
        .args(["ingest", "--data"])
        .arg(&path)
        .arg("--script")
        .arg(&script)
        .arg("--wal-dir")
        .arg(&wal_dir)
        .args(["--fsync", "sometimes"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fsync"));

    // recovery without a checkpoint or base dataset is a clean error
    let empty = temp_dataset("durable.empty.wal");
    std::fs::remove_dir_all(&empty).ok();
    std::fs::create_dir_all(&empty).unwrap();
    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&empty)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no usable checkpoint"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&script).ok();
    std::fs::remove_file(&prom).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// Regression: `uots ingest --wal-dir DIR` over a directory an earlier run
/// wrote used to `create` over it — the log went on from the earlier
/// run's LSNs while memory restarted from the base dataset, so the second
/// run reissued the first run's ids. It now resumes, like the server: what
/// the second run serves is what recovery rebuilds from the directory.
#[test]
fn ingest_twice_on_one_wal_dir_continues_the_lineage() {
    let path = temp_dataset("twice.uotsds");
    generate(&path);
    let wal_dir = temp_dataset("twice.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    let script = temp_dataset("twice.script");
    let run = |mutations: &str| -> String {
        std::fs::write(&script, mutations).unwrap();
        let out = uots()
            .args(["ingest", "--data"])
            .arg(&path)
            .arg("--script")
            .arg(&script)
            .arg("--wal-dir")
            .arg(&wal_dir)
            .arg("--verify")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // `<live> live / <total>` of the last state a command printed
    let state = |text: &str| -> String {
        let line = text.lines().rfind(|l| l.contains(" live / "));
        let line = line.unwrap_or_else(|| panic!("no state line in: {text}"));
        let words: Vec<&str> = line.split_whitespace().collect();
        let at = words.iter().position(|w| *w == "live").unwrap();
        words[at - 1..at + 3].join(" ")
    };

    // 120 base trips: the first run's insert is id 120, the second's 121
    let first = run("ingest 0 1 2\nretire 0\npublish\n");
    assert!(!first.contains("resumed"), "{first}");
    assert_eq!(state(&first), "120 live / 121");
    let second = run("ingest 3 4 5\nretire 120\npublish\n");
    assert!(
        second.contains("resumed: replayed 2 wal batches"),
        "{second}"
    );
    assert!(second.contains("wal durable through lsn 4"), "{second}");
    assert_eq!(state(&second), "120 live / 122");

    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&wal_dir)
        .args(["--data"])
        .arg(&path)
        .arg("--verify")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replayed 4 wal batches"), "{text}");
    assert_eq!(state(&text), state(&second), "{text}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn generate_rejects_unknown_preset() {
    let out = uots()
        .args([
            "generate",
            "--preset",
            "mars",
            "--trips",
            "10",
            "--out",
            "/tmp/x.uotsds",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn status_and_fsck_report_through_exit_codes() {
    let path = temp_dataset("fsck.uotsds");
    generate(&path);
    let wal_dir = temp_dataset("fsck.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::create_dir_all(&wal_dir).unwrap();
    let script = temp_dataset("fsck.script");
    std::fs::write(
        &script,
        "ingest 0 1 2\npublish\ningest 3 4 5\npublish\ningest 1 2 3\npublish\n",
    )
    .unwrap();
    let out = uots()
        .args(["ingest", "--data"])
        .arg(&path)
        .arg("--script")
        .arg(&script)
        .arg("--wal-dir")
        .arg(&wal_dir)
        .args(["--checkpoint-every", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // clean directory: status exits 0 and says so
    let out = uots()
        .args(["status", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean dir is exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clean"), "{text}");
    assert!(text.contains("recovery plan"), "{text}");

    // corrupt the newest checkpoint: status reports exit 4, moves nothing
    let cks: Vec<std::path::PathBuf> = {
        let mut v: Vec<_> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "uotsck"))
            .collect();
        v.sort();
        v.reverse();
        v
    };
    assert!(cks.len() >= 2, "need checkpoints to corrupt: {cks:?}");
    let victim = &cks[0];
    let mut raw = std::fs::read(victim).unwrap();
    let n = raw.len();
    raw[n - 2] ^= 0xff;
    std::fs::write(victim, &raw).unwrap();

    let out = uots()
        .args(["status", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "corruption found is exit 4");
    assert!(String::from_utf8_lossy(&out.stdout).contains("corrupt checkpoint"));
    assert!(victim.exists(), "status is read-only");

    // recover still works but took the fallback path: exit 3
    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&wal_dir)
        .args(["--data"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "skipped-checkpoint recovery is exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("skipped corrupt checkpoint"));

    // fsck quarantines the corrupt file (still exit 4: damage was found)
    let out = uots()
        .args(["fsck", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantined"), "{text}");
    assert!(!victim.exists(), "fsck moves the corrupt checkpoint");
    let manifest = wal_dir.join("quarantine").join("MANIFEST.txt");
    assert!(manifest.exists(), "quarantine manifest must exist");

    // after the scrub both status and recover are clean again
    let out = uots()
        .args(["status", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "scrubbed dir is clean");
    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean recovery is exit 0");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn unrecoverable_directories_exit_5() {
    let path = temp_dataset("unrec.uotsds");
    generate(&path);
    let wal_dir = temp_dataset("unrec.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::create_dir_all(&wal_dir).unwrap();
    let script = temp_dataset("unrec.script");
    std::fs::write(&script, "ingest 0 1 2\npublish\n").unwrap();
    // wal only, no checkpoints
    let out = uots()
        .args(["ingest", "--data"])
        .arg(&path)
        .arg("--script")
        .arg(&script)
        .arg("--wal-dir")
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert!(out.status.success());

    // destroy the only segment's header: nothing replayable remains
    let seg: std::path::PathBuf = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("wal segment exists");
    let mut raw = std::fs::read(&seg).unwrap();
    raw[0] ^= 0xff;
    std::fs::write(&seg, &raw).unwrap();

    // without a base dataset fsck declares the directory unrecoverable
    let out = uots()
        .args(["fsck", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // with --data the base dataset makes it recoverable: plain exit 4
    // (the segment is already quarantined; re-damage nothing — a second
    // fsck over the now-empty dir is clean, so re-check via status first)
    let out = uots()
        .args(["status", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "quarantine emptied the dir");

    // recover over the scrubbed, checkpoint-less dir without a base: exit 5
    let out = uots()
        .args(["recover", "--wal-dir"])
        .arg(&wal_dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no usable checkpoint"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
}
