//! Differential fuzzing / fault-injection driver (see
//! `polyflow_bench::fuzz`). Hermetic and reproducible: every case derives
//! from an explicit [`SplitMix64`] seed, so a reported failure replays
//! with `fuzz --seed <S> [--faults]`.
//!
//! Usage: `fuzz [--seeds N] [--seed S] [--faults] [--shapes N] [--replay FILE]`
//!
//! * `--seeds N`  — number of consecutive seeds to run (default 64).
//! * `--seed S`   — first seed, decimal or 0x-hex (default 1).
//! * `--faults`   — additionally apply every trace-corruption operator
//!   to each seed's trace and require typed errors, never panics.
//! * `--shapes N` — instead run the CFG-shape-controlled dataflow mode:
//!   N seeds × every shape, differentially checking the worklist solver
//!   against the round-robin reference iteration.
//! * `--replay F` — replay a regression corpus file instead
//!   (`<seed> <differential|faults|shape:<label>>` per line) and ignore
//!   `--seeds`.
//!
//! Exits nonzero if any seed fails; each failure prints with its seed.
//!
//! [`SplitMix64`]: polyflow_isa::rng::SplitMix64

use polyflow_bench::fuzz::{fuzz_range, fuzz_shapes, parse_seed, replay_corpus, FuzzReport};

fn main() {
    let mut seeds: u64 = 64;
    let mut seed0: u64 = 1;
    let mut faults = false;
    let mut shapes: Option<u64> = None;
    let mut replay: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => match args.next().and_then(|v| parse_seed(&v)) {
                Some(n) => seeds = n,
                None => usage("--seeds needs a count"),
            },
            "--seed" => match args.next().and_then(|v| parse_seed(&v)) {
                Some(s) => seed0 = s,
                None => usage("--seed needs a value"),
            },
            "--faults" => faults = true,
            "--shapes" => match args.next().and_then(|v| parse_seed(&v)) {
                Some(n) => shapes = Some(n),
                None => usage("--shapes needs a count"),
            },
            "--help" | "-h" => {
                println!(
                    "fuzz — differential fuzzing / fault-injection driver\n\n\
                     Usage: fuzz [--seeds N] [--seed S] [--faults] [--shapes N] [--replay FILE]"
                );
                std::process::exit(0);
            }
            "--replay" => match args.next() {
                Some(p) => replay = Some(p),
                None => usage("--replay needs a file"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let mode = match (&replay, &shapes, faults) {
        (Some(_), _, _) => "corpus replay",
        (None, Some(_), _) => "cfg shapes vs oracle",
        (None, None, true) => "differential + faults",
        (None, None, false) => "differential",
    };
    let report: FuzzReport = if let Some(path) = replay {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read corpus {path}: {e}")));
        replay_corpus(&text).unwrap_or_else(|e| fail(&format!("corpus {path}: {e}")))
    } else if let Some(n) = shapes {
        fuzz_shapes(seed0, n)
    } else {
        fuzz_range(seed0, seeds, faults)
    };

    for f in &report.failures {
        eprintln!("[fuzz] FAIL {f}");
    }
    println!(
        "fuzz: {} seed{} run ({mode}), {} failure{}",
        report.seeds_run,
        if report.seeds_run == 1 { "" } else { "s" },
        report.failures.len(),
        if report.failures.len() == 1 { "" } else { "s" },
    );
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    fail(&format!(
        "{msg}\nusage: fuzz [--seeds N] [--seed S] [--faults] [--shapes N] [--replay FILE]"
    ))
}

fn fail(msg: &str) -> ! {
    eprintln!("fuzz: {msg}");
    std::process::exit(2);
}
