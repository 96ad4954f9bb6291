//! `--max-cycles` end to end, through the real binaries: the budget a
//! command line sets must bound every run the binary makes, and a run
//! that exceeds it must come back as the typed error, never a panic.
//! A malformed `POLYFLOW_JOBS` is a usage error, never a panic, too.
//! Every run also checks that the binary wrote nothing into its working
//! directory: its only outputs are stdout and stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A checked-in program whose runs take far more than 100 cycles.
fn saxpy() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads/asm/saxpy.asm")
}

/// Runs `binary` with `env` added to its environment in a fresh empty
/// directory, and asserts that the directory is still empty when it
/// exits.
fn run(binary: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let stem = Path::new(binary).file_stem().expect("a binary path");
    let dir = std::env::temp_dir().join(format!(
        "polyflow-cwd-{}-{}",
        stem.to_string_lossy(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(binary)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"));
    let left: Vec<_> = fs::read_dir(&dir)
        .expect("read the working directory")
        .map(|e| e.expect("a directory entry").file_name())
        .collect();
    fs::remove_dir_all(&dir).expect("remove the working directory");
    assert!(
        left.is_empty(),
        "{binary} wrote {left:?} into its working directory"
    );
    out
}

#[test]
fn ablations_budget_bounds_every_cell() {
    let asm = saxpy();
    let out = run(
        env!("CARGO_BIN_EXE_ablations"),
        &[
            "--max-cycles",
            "100",
            "--jobs",
            "1",
            "--asm",
            asm.to_str().unwrap(),
        ],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let failed: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("FAILED cell"))
        .collect();
    assert_eq!(
        failed.len(),
        36,
        "the baseline and all 35 variants must fail:\n{stderr}"
    );
    for line in &failed {
        assert!(line.contains("cycle budget exceeded"), "{line}");
    }
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

#[test]
fn explain_reports_a_failed_run_instead_of_panicking() {
    let asm = saxpy();
    let out = run(
        env!("CARGO_BIN_EXE_explain"),
        &[
            "--asm",
            asm.to_str().unwrap(),
            "postdoms",
            "--max-cycles",
            "100",
        ],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one line of diagnosis:\n{stderr}");
    assert!(
        lines[0].starts_with("explain: cycle budget exceeded: 100 cycles elapsed"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing is explained for a failed run"
    );
}

#[test]
fn malformed_job_count_is_a_usage_error() {
    let bad = [("POLYFLOW_JOBS", "abc")];
    let out = run(env!("CARGO_BIN_EXE_fig05_static_distribution"), &[], &bad);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("POLYFLOW_JOBS"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");

    // `--jobs` wins, so the variable is never read.
    let out = run(
        env!("CARGO_BIN_EXE_fig05_static_distribution"),
        &["--jobs", "1", "mcf"],
        &bad,
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // A binary that takes no `--jobs` does not read it either.
    let out = run(env!("CARGO_BIN_EXE_lint"), &["mcf"], &bad);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
