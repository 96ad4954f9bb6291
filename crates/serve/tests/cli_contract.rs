//! Every serve binary keeps the one command-line contract (the bench
//! package's `tests/support/cli_contract.rs`): `--help`, an unknown flag,
//! a flag missing its value, and the `--flag=value` form. A number that
//! does not fit its field is refused before anything is bound.

#[path = "../../bench/tests/support/cli_contract.rs"]
mod contract;

use contract::{check, Contract};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BINARIES: &[Contract] = &[
    Contract {
        exe: env!("CARGO_BIN_EXE_serve"),
        flags: &[
            "--addr HOST:PORT",
            "--jobs N",
            "--queue N",
            "--max-cycles N",
            "--cache-capacity N",
            "--cache-dir PATH",
            "--max-deadline MS",
            "--write-timeout-ms N",
            "--max-line BYTES",
        ],
        eq_form: Some((&["--queue=0"], 2, "--queue must be at least 1")),
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_router"),
        flags: &[
            "--addr HOST:PORT",
            "--backends H:P,H:P,...",
            "--replicas N",
            "--check-interval-ms N",
            "--eject-after N",
            "--readmit-after N",
            "--io-timeout-ms N",
            "--max-cycles N",
            "--max-line BYTES",
        ],
        eq_form: Some((&["--replicas=3"], 2, "--backends is required")),
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_chaos"),
        flags: &[
            "--listen HOST:PORT",
            "--upstream HOST:PORT",
            "--seed N",
            "--delay-pct N",
            "--reset-pct N",
            "--truncate-pct N",
            "--bitflip-pct N",
            "--blackhole-pct N",
            "--delay-ms N",
        ],
        eq_form: Some((
            &["--listen=127.0.0.1:0", "--reset-pct=101"],
            2,
            "--reset-pct must be at most 100",
        )),
    },
    Contract {
        exe: env!("CARGO_BIN_EXE_loadgen"),
        flags: &[
            "--addr HOST:PORT",
            "--targets H:P,H:P,...",
            "--clients N",
            "--open N",
            "--duration-ms N",
            "--hit-ratio PCT",
            "--seed N",
            "--max-cycles N",
            "--jobs N",
            "--retries N",
            "--retry-budget N",
            "--deadline-ms N",
            "--integrity",
            "--verify-fig09",
        ],
        eq_form: Some((
            &["--open=1", "--addr=no-port"],
            2,
            "cannot resolve `no-port`",
        )),
    },
];

#[test]
fn every_serve_binary_keeps_the_command_line_contract() {
    for c in BINARIES {
        check(c);
    }
}

/// Runs `exe` with `args` and returns its exit status, killing it (and
/// failing) if it is still running after 20 s: a command line that
/// should have been refused may instead start a server.
fn exit_status(exe: &str, args: &[&str]) -> Option<i32> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            return status.code();
        }
        if started.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{exe} {args:?} is still running: it was not refused");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Numbers that do not fit their field, or that wrap a sum, are refused
/// with exit 2 instead of being narrowed.
#[test]
fn numbers_that_do_not_fit_are_refused() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    let cases: &[(&str, &[&str])] = &[
        (
            chaos,
            &["--listen", "127.0.0.1:0", "--reset-pct", "4294967296"],
        ),
        (
            chaos,
            &[
                "--listen",
                "127.0.0.1:0",
                "--reset-pct",
                "4294967295",
                "--delay-pct",
                "1",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_router"),
            &[
                "--addr",
                "127.0.0.1:0",
                "--backends",
                "127.0.0.1:1",
                "--eject-after",
                "4294967296",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_loadgen"),
            &["--addr", "127.0.0.1:1", "--retries", "4294967296"],
        ),
    ];
    for (exe, args) in cases {
        assert_eq!(exit_status(exe, args), Some(2), "{exe} {args:?}");
    }
}

/// `loadgen --open` probes one server, so several `--targets` are a
/// usage error that names the conflict, not a probe of the first.
#[test]
fn open_probe_refuses_several_targets() {
    let (code, out, err) = contract::run(
        env!("CARGO_BIN_EXE_loadgen"),
        &["--open", "1", "--targets", "127.0.0.1:9,127.0.0.1:10"],
    );
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(out, "");
    assert!(
        err.contains("--open probes one server, but --targets names 2"),
        "{err}"
    );
}
