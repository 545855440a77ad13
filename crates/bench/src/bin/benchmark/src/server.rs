//! Black-box handling of the release binaries: spawn, wait until ready,
//! read `/proc/<pid>`, kill. Nothing here knows more than CLI flags and
//! the lines `uots-serve` prints.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::http;

/// The `uots` / `uots-serve` binaries, found next to this executable.
pub struct Binaries {
    pub uots: PathBuf,
    pub serve: PathBuf,
    /// Directory of the executables; scratch data lives below it, which
    /// keeps every write inside the build directory of the checkout.
    pub dir: PathBuf,
}

impl Binaries {
    pub fn locate() -> Result<Binaries, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .to_path_buf();
        // `cargo test` runs from <target>/<profile>/deps.
        if dir.ends_with("deps") {
            dir.pop();
        }
        let find = |name: &str| {
            let p = dir.join(name);
            if p.is_file() {
                Ok(p)
            } else {
                Err(format!(
                    "{} not found: build it first with `cargo build --release --bins -p uots`",
                    p.display()
                ))
            }
        };
        Ok(Binaries {
            uots: find("uots")?,
            serve: find("uots-serve")?,
            dir,
        })
    }

    /// Runs `uots generate`; returns how long it took.
    pub fn generate(
        &self,
        preset: &str,
        trips: usize,
        seed: u64,
        out: &Path,
    ) -> Result<Duration, String> {
        let start = Instant::now();
        let output = Command::new(&self.uots)
            .args(["generate", "--preset", preset])
            .args(["--trips", &trips.to_string(), "--seed", &seed.to_string()])
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning uots generate: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "uots generate failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        Ok(start.elapsed())
    }
}

/// Kernel clock ticks per second, for `/proc/<pid>/stat` CPU times.
fn clock_ticks() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// A running `uots-serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    // Held open so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first `200` on `/status`.
    pub ready: Duration,
}

impl Server {
    /// Starts the server on an ephemeral port with default flags plus
    /// `extra`, and returns once it answers.
    pub fn spawn(
        bins: &Binaries,
        data: &Path,
        extra: &[String],
        log: &Path,
    ) -> Result<Server, String> {
        let start = Instant::now();
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("opening {}: {e}", log.display()))?;
        let mut child = Command::new(&bins.serve)
            .arg("--data")
            .arg(data)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning uots-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = match read_listen_addr(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{e} (see {})", log.display()));
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            ready: Duration::ZERO,
        };
        loop {
            match http::get(addr, "/status") {
                Ok(r) if r.status == 200 => break,
                _ if start.elapsed() > Duration::from_secs(60) => {
                    return Err("uots-serve did not answer /status within 60 s".into());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        server.ready = start.elapsed();
        Ok(server)
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// User + system CPU time consumed so far, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the line, so the 12th and 13th after it.
        let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
        let mut fields = after.split_whitespace().skip(11);
        let mut tick = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick() + tick()) * 1000.0 / clock_ticks()
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.proc_file("status")
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    pub fn metrics_text(&self) -> Result<String, String> {
        match http::get(self.addr, "/metrics") {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("/metrics answered {}", r.status)),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// SIGKILL, then reap: what dropping does, named for the crash half of
    /// the recovery check.
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_listen_addr(stdout: &mut BufReader<ChildStdout>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) => return Err("uots-serve exited before listening".into()),
            Ok(_) => {
                if let Some(addr) = line.trim().rsplit_once("http://").map(|(_, a)| a) {
                    return addr
                        .parse()
                        .map_err(|e| format!("bad listen address `{addr}`: {e}"));
                }
            }
            Err(e) => return Err(format!("reading uots-serve stdout: {e}")),
        }
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Recursive copy of a directory tree of plain files.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
