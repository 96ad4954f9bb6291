//! Crash-safety tests against the real `serve` binary: SIGKILL with a
//! populated journal must warm-start byte-identically, a corrupted
//! journal tail must recover to a consistent prefix, a SIGTERM drain
//! must finish the queued uploaded-program cell and flush the journal
//! before exiting 0, and a cell that panics in the simulator must cost
//! only its own request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BUDGET: u64 = 1_000_000_000;

struct ServerProc {
    child: Child,
    addr: String,
    stderr_thread: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl ServerProc {
    /// Spawns the real `serve` binary and waits for its listening line.
    fn spawn(cache_dir: &Path, extra_args: &[&str]) -> ServerProc {
        ServerProc::spawn_with_env(cache_dir, extra_args, &[])
    }

    /// [`ServerProc::spawn`] with extra environment variables set for
    /// the child only.
    fn spawn_with_env(cache_dir: &Path, extra_args: &[&str], env: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra_args)
            .envs(env.iter().copied())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let stderr_thread = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("[serve] listening on ") {
                    let _ = addr_tx.send(addr.to_string());
                }
                lines.push(line);
            }
            lines
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("serve must announce its address");
        ServerProc {
            child,
            addr,
            stderr_thread: Some(stderr_thread),
        }
    }

    fn exchange(&self, line: &str) -> String {
        exchange_at(&self.addr, line)
    }

    /// SIGKILL — no drain, no flush beyond what `write(2)` already did.
    fn kill9(mut self) -> Vec<String> {
        self.child.kill().expect("kill -9");
        let _ = self.child.wait();
        self.stderr_thread.take().unwrap().join().unwrap()
    }

    /// SIGTERM, then wait; returns (exit status, stderr lines).
    fn sigterm_and_wait(mut self) -> (std::process::ExitStatus, Vec<String>) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
        let status = self.child.wait().expect("wait for serve");
        let lines = self.stderr_thread.take().unwrap().join().unwrap();
        (status, lines)
    }
}

fn exchange_at(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("{line}\n").as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    assert!(reply.ends_with('\n'), "newline-framed reply: {reply:?}");
    reply.trim_end_matches('\n').to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polyflow-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sim_line(workload: &str, policy: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}"
    )
}

fn stat_u64(stats_reply: &str, path: &[&str]) -> u64 {
    let v = polyflow_serve::json::parse(stats_reply).expect("stats parse");
    let mut cur = v.get("stats").expect("stats object");
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("stats.{p} missing"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("stats.{path:?} not a number"))
}

/// populate → SIGKILL → restart: every pre-crash entry is served warm,
/// byte-identically, without a single cell re-simulated; then a
/// garbage-corrupted journal tail still recovers every real entry.
#[test]
fn sigkill_then_warm_restart_is_byte_identical() {
    let dir = temp_dir("sigkill");
    let cells = [
        sim_line("bzip2", "baseline"),
        sim_line("bzip2", "postdoms"),
        sim_line("gzip", "baseline"),
        sim_line("gzip", "postdoms"),
    ];

    let server = ServerProc::spawn(&dir, &[]);
    let cold: Vec<String> = cells.iter().map(|l| server.exchange(l)).collect();
    for r in &cold {
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }
    server.kill9();

    // Warm restart: the journal alone must reconstruct all four.
    let server = ServerProc::spawn(&dir, &[]);
    let stats = server.exchange("stats");
    assert!(
        stat_u64(&stats, &["cache", "warm_start"]) >= cells.len() as u64,
        "all entries replayed: {stats}"
    );
    let warm: Vec<String> = cells.iter().map(|l| server.exchange(l)).collect();
    assert_eq!(warm, cold, "post-crash replies byte-identical");
    let stats = server.exchange("stats");
    assert_eq!(
        stat_u64(&stats, &["account", "cells"]),
        0,
        "nothing re-simulated after the crash: {stats}"
    );
    server.kill9();

    // Corrupt the newest segment's tail (a torn write at power loss) and
    // restart once more: recovery stops at the first bad record and
    // keeps everything before it.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("segment-"))
        })
        .collect();
    segments.sort();
    let newest = segments.last().expect("journal has segments");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(newest)
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x17]).unwrap();
    }
    let server = ServerProc::spawn(&dir, &[]);
    let stats = server.exchange("stats");
    assert!(
        stat_u64(&stats, &["cache", "warm_start"]) >= cells.len() as u64,
        "garbage tail must not cost real entries: {stats}"
    );
    let recovered: Vec<String> = cells.iter().map(|l| server.exchange(l)).collect();
    assert_eq!(recovered, cold);
    server.kill9();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM while an uploaded-program simulate is in flight: the drain
/// finishes the cell, the client gets its reply, the process exits 0,
/// and a restart finds the cell already in the journal.
#[test]
fn sigterm_drain_finishes_inflight_upload_and_flushes_journal() {
    let dir = temp_dir("sigterm");
    // One worker, busy with a cold cell admitted ahead of the upload,
    // keeps the upload visibly queued while the signal lands.
    let server = ServerProc::spawn(&dir, &["--jobs", "1"]);
    let addr = server.addr.clone();
    let ahead = {
        let addr = addr.clone();
        std::thread::spawn(move || exchange_at(&addr, &sim_line("mcf", "rec_pred")))
    };
    wait_for_stat(&server, &["requests", "submitted"], 1);

    let asm = polyflow_isa::to_asm(&polyflow_workloads::by_name("gzip").unwrap().program);
    let upload = format!(
        "{{\"program\":\"{}\",\"policy\":\"postdoms\",\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}",
        polyflow_serve::json::escape(&asm)
    );
    let inflight = {
        let upload = upload.clone();
        std::thread::spawn(move || exchange_at(&addr, &upload))
    };

    // Wait until the upload is queued behind the running cell.
    wait_for_stat(&server, &["queue", "depth"], 1);

    let (status, stderr) = server.sigterm_and_wait();
    assert!(
        status.success(),
        "drain must exit 0, got {status:?}; stderr: {stderr:?}"
    );
    let reply = inflight.join().expect("in-flight client");
    assert!(
        reply.starts_with("{\"ok\":true"),
        "in-flight upload completed during drain: {reply}"
    );
    let ahead = ahead.join().expect("client of the cell ahead");
    assert!(ahead.starts_with("{\"ok\":true"), "{ahead}");

    // The drained cell survived to disk: a fresh server serves the very
    // same bytes warm (and by bundled name too — fingerprint keying).
    let server = ServerProc::spawn(&dir, &[]);
    let stats = server.exchange("stats");
    assert!(stat_u64(&stats, &["cache", "warm_start"]) >= 1, "{stats}");
    assert_eq!(server.exchange(&upload), reply);
    let stats = server.exchange("stats");
    assert_eq!(
        stat_u64(&stats, &["account", "cells"]),
        0,
        "warm restart re-simulated nothing: {stats}"
    );
    server.kill9();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls the `stats` verb until `stats.<path>` reaches `at_least`.
fn wait_for_stat(server: &ServerProc, path: &[&str], at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat_u64(&server.exchange("stats"), path) < at_least {
        assert!(
            Instant::now() < deadline,
            "stats.{path:?} never reached {at_least}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A cell that panics inside the simulator costs only its own request:
/// with `POLYFLOW_FAULT_CELL` naming it in the server's environment, that
/// request gets a typed `sim_failed`, the same single worker serves the
/// next cell, and a SIGTERM drain still exits 0.
#[test]
fn panicking_cell_is_a_typed_failure_and_the_worker_survives() {
    let dir = temp_dir("fault");
    let server = ServerProc::spawn_with_env(
        &dir,
        &["--jobs", "1"],
        &[("POLYFLOW_FAULT_CELL", "gzip/postdoms")],
    );
    let failed = server.exchange(&sim_line("gzip", "postdoms"));
    let v = polyflow_serve::json::parse(&failed).expect("error reply parses");
    let kind = v.get("error").and_then(|e| e.get("kind"));
    assert_eq!(
        kind.and_then(polyflow_serve::json::Json::as_str),
        Some("sim_failed"),
        "{failed}"
    );
    let next = server.exchange(&sim_line("gzip", "baseline"));
    assert!(next.starts_with("{\"ok\":true"), "{next}");
    let stats = server.exchange("stats");
    assert_eq!(stat_u64(&stats, &["requests", "failed"]), 1, "{stats}");
    let (status, stderr) = server.sigterm_and_wait();
    assert!(
        status.success(),
        "drain must exit 0, got {status:?}; stderr: {stderr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
