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

/// FNV-1a-64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generated_bytes_are_pinned() {
    // The trip stream is one sequence per seed, however many cores route
    // it: these are the files the repository benchmark pins as well.
    for (trips, want) in [
        ("2000", 0x15d0_f0bd_8472_88a5_u64),
        ("10000", 0xe0c9_35ea_e5ea_21d2),
    ] {
        let path = temp_dataset(&format!("pinned-{trips}.uotsds"));
        let out = uots()
            .args([
                "generate", "--preset", "small", "--trips", trips, "--seed", "11", "--out",
            ])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = fnv1a(&std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(got, want, "--trips {trips}: {got:#018x} != {want:#018x}");
    }
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

/// A flag the command does not read fails before any work — a typo such
/// as `--tag` for `--tags` used to rank without keywords and exit 0 — and
/// so do the deleted `--no-cache` and `--cache-capacity`.
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let path = temp_dataset("unknownflags.uotsds");
    generate(&path);
    let script = temp_dataset("unknownflags.script");
    std::fs::write(&script, "ingest 0 1 2\npublish\n").unwrap();
    let wal_dir = temp_dataset("unknownflags.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    let (data, script_arg) = (path.to_str().unwrap(), script.to_str().unwrap());
    let wal_arg = wal_dir.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["query", "--data", data, "--at", "2,2", "--tag", "3"],
            "tag",
        ),
        (
            vec!["query", "--data", data, "--at", "2,2", "--no-cache"],
            "no-cache",
        ),
        (vec!["join", "--data", data, "--no-cache"], "no-cache"),
        (
            vec![
                "query",
                "--data",
                data,
                "--at",
                "2,2",
                "--cache-capacity",
                "0",
            ],
            "cache-capacity",
        ),
        (
            vec!["join", "--data", data, "--cache-capacity", "0"],
            "cache-capacity",
        ),
        (vec!["join", "--data", data, "--tehta", "0.9"], "tehta"),
        (
            vec![
                "ingest",
                "--data",
                data,
                "--script",
                script_arg,
                "--wal-dir",
                wal_arg,
                "--batchh",
                "1",
            ],
            "batchh",
        ),
    ] {
        let out = uots().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("error: unknown flag --{flag}");
        assert_eq!(stderr.trim_end(), want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no work before the error");
    }
    assert!(!wal_dir.exists(), "the refused ingest opened no wal");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&script).ok();
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

/// `status` and `fsck --data` exit 5 over a log recovery refuses, as
/// `recover --data` does: rotated one record per segment, pruned against
/// a lsn-6 checkpoint that is then damaged, so the lsn-3 checkpoint and
/// the base dataset would both need pruned lsns replayed.
#[test]
fn status_fsck_and_recover_agree_on_a_gapped_log() {
    use std::sync::Arc;
    use uots::core::wal::{self, FsyncPolicy, WalConfig, WalWriter};
    use uots::datagen::persist::{self, Checkpoint};
    use uots::storage::StdFs;
    use uots::{LiveSet, Mutation, Trajectory, TrajectoryId};

    let path = temp_dataset("gapped.uotsds");
    generate(&path);
    let ds = persist::load_file(&path).unwrap();
    let wal_dir = temp_dataset("gapped.wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    let config = WalConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 1,
    };
    let mut writer = WalWriter::open(&wal_dir, config, Arc::new(StdFs), None, None).unwrap();
    let donors: Vec<Trajectory> = (0..8)
        .map(|i| ds.store.get(TrajectoryId(i)).clone())
        .collect();
    for t in &donors {
        writer.append(&[Mutation::Insert(t.clone())]).unwrap();
    }
    drop(writer);
    for lsn in [3usize, 6] {
        let mut store = ds.store.clone();
        for t in &donors[..lsn] {
            store.push(t.clone());
        }
        let ck = Checkpoint {
            network: ds.network.clone(),
            vocab: ds.vocab.clone(),
            live: LiveSet::all_live(store.len()),
            store,
            epoch: lsn as u64,
            lsn: lsn as u64,
        };
        let file = wal_dir.join(format!("ckpt-{lsn:020}.uotsck"));
        persist::save_checkpoint_file(&StdFs, &ck, &file).unwrap();
    }
    assert_eq!(wal::prune_segments(&StdFs, &wal_dir, 6).unwrap(), 6);
    let victim = wal_dir.join(format!("ckpt-{:020}.uotsck", 6));
    let mut raw = std::fs::read(&victim).unwrap();
    raw[40] ^= 0x04;
    std::fs::write(&victim, &raw).unwrap();

    let run = |args: &[&str], with_data: bool| {
        let mut cmd = uots();
        cmd.args(args).arg("--wal-dir").arg(&wal_dir);
        if with_data {
            cmd.arg("--data").arg(&path);
        }
        let out = cmd.output().unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, text) = run(&["status"], false);
    assert_eq!(code, Some(5), "{text}");
    assert!(text.contains("wal tail starts at lsn 7"), "{text}");
    let (code, text) = run(&["status", "--json"], false);
    assert_eq!(code, Some(5), "{text}");
    assert!(text.contains("\"base_gap\": 7"), "{text}");
    // fsck quarantines the damaged checkpoint; what remains is still gapped
    let (code, text) = run(&["fsck"], true);
    assert_eq!(code, Some(5), "{text}");
    assert!(!victim.exists(), "{text}");
    let (code, text) = run(&["status"], false);
    assert_eq!(code, Some(5), "clean is not recoverable: {text}");
    let (code, _) = run(&["recover"], true);
    assert_eq!(code, Some(5));

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// `recover`, `status` and `fsck` read one lineage directory. The root of
/// a lineage of two shards or more is refused, naming its shard
/// directories, and so is a path that does not exist: both used to pass
/// as a clean, empty directory, and `recover --data` as the base dataset,
/// without reading any shard.
#[test]
fn durability_commands_refuse_a_sharded_root_and_a_missing_path() {
    use std::sync::Arc;
    use uots::cluster::ShardedDurable;
    use uots::datagen::persist;
    use uots::WalConfig;

    let path = temp_dataset("sharded_root.uotsds");
    generate(&path);
    let ds = persist::load_file(&path).unwrap();
    let root = temp_dataset("sharded_root.wal");
    std::fs::remove_dir_all(&root).ok();
    ShardedDurable::create(
        Arc::new(ds.network.clone()),
        &ds.store,
        &ds.vocab,
        &root,
        2,
        WalConfig::default(),
        None,
        None,
    )
    .expect("create a 2-shard lineage");
    let shards = [root.join("shard-0"), root.join("shard-1")];
    let quarantines = || {
        [&root, &shards[0], &shards[1]]
            .iter()
            .any(|d| d.join("quarantine").exists())
    };

    let data = path.to_str().unwrap();
    for (command, extra) in [
        ("status", &[][..]),
        ("fsck", &[]),
        ("recover", &[]),
        ("recover", &["--data", data]),
    ] {
        let out = uots()
            .args([command, "--wal-dir"])
            .arg(&root)
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {extra:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        for shard in &shards {
            let shard = shard.to_str().unwrap();
            assert!(stderr.contains(shard), "{command} names {shard}: {stderr}");
        }
        assert!(
            out.stdout.is_empty(),
            "{command}: no work before the refusal"
        );
        assert!(!quarantines(), "{command} moved nothing");
    }

    // a shard directory is a lineage of its own and reads as before
    let out = uots()
        .args(["status", "--wal-dir"])
        .arg(&shards[0])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let missing = temp_dataset("sharded_root.missing");
    std::fs::remove_dir_all(&missing).ok();
    for command in ["status", "fsck"] {
        let out = uots()
            .args([command, "--wal-dir"])
            .arg(&missing)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(missing.to_str().unwrap()), "{stderr}");
        assert!(!missing.exists(), "{command} created nothing");
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&root).ok();
}
