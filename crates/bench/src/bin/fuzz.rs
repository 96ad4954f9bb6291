//! Differential fuzzing / fault-injection driver (see
//! `polyflow_bench::fuzz`). Hermetic and reproducible: every case derives
//! from an explicit [`SplitMix64`] seed, so a reported failure replays
//! with `fuzz --seed <S> [--faults]`.
//!
//! Usage: `fuzz [--seeds N] [--seed S] [--faults] [--shapes N] [--replay FILE]`
//! (`fuzz --help` says what each flag does).
//!
//! Exits nonzero if any seed fails; each failure prints with its seed.
//!
//! [`SplitMix64`]: polyflow_isa::rng::SplitMix64

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_bench::fuzz::{fuzz_range, fuzz_shapes, replay_corpus, FuzzReport};

const SEEDS: Flag = Flag {
    name: "--seeds",
    value: Value::Number("N"),
    help: "number of consecutive seeds to run (default 64)",
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Value::Number("S"),
    help: "first seed, decimal or 0x hex (default 1)",
};
const FAULTS: Flag = Flag {
    name: "--faults",
    value: Value::Switch,
    help: "also apply every trace-corruption operator to each seed's trace \
           and require typed errors, never panics",
};
const SHAPES: Flag = Flag {
    name: "--shapes",
    value: Value::Number("N"),
    help: "instead check the worklist solver against the round-robin \
           reference on N seeds x every CFG shape",
};
const REPLAY: Flag = Flag {
    name: "--replay",
    value: Value::Text("FILE"),
    help: "instead replay a regression corpus \
           (`<seed> <differential|faults|shape:<label>>` a line); ignores --seeds",
};

const SPEC: Spec = Spec {
    name: "fuzz",
    about: "differential fuzzing / fault-injection harness",
    flags: &[SEEDS, SEED, FAULTS, SHAPES, REPLAY],
    operands: Operands::None,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let seeds = args.number(&SEEDS).unwrap_or(64);
    let seed0 = args.number(&SEED).unwrap_or(1);
    let faults = args.switch(&FAULTS);
    let shapes = args.number(&SHAPES);
    let replay = args.text(&REPLAY);

    let mode = match (&replay, &shapes, faults) {
        (Some(_), _, _) => "corpus replay",
        (None, Some(_), _) => "cfg shapes vs oracle",
        (None, None, true) => "differential + faults",
        (None, None, false) => "differential",
    };
    let report: FuzzReport = if let Some(path) = replay {
        let corpus = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read corpus {path}: {e}"))
            .and_then(|text| replay_corpus(&text).map_err(|e| format!("corpus {path}: {e}")));
        corpus.unwrap_or_else(|e| {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        })
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
