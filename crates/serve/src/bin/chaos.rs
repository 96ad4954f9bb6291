//! The PolyFlow chaos proxy.
//!
//! A seeded fault-injection TCP proxy (see `polyflow_serve::chaos`)
//! interposed between clients and a running `serve`:
//!
//! ```text
//! serve --addr 127.0.0.1:7199 &
//! chaos --listen 127.0.0.1:7190 --upstream 127.0.0.1:7199 \
//!       --seed 42 --reset-pct 8 --truncate-pct 8 --bitflip-pct 8 \
//!       --delay-pct 10 --blackhole-pct 4
//! loadgen --addr 127.0.0.1:7190 --retries 16 --integrity ...
//! ```
//!
//! Runs until SIGINT/SIGTERM, then prints per-operator fault counts to
//! stderr and exits 0.

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_serve::chaos::{ChaosConfig, ChaosProxy};
use polyflow_serve::signal;
use std::process::exit;
use std::time::Duration;

const LISTEN: Flag = Flag {
    name: "--listen",
    value: Value::Text("HOST:PORT"),
    help: "address clients connect to (default 127.0.0.1:7190; port 0 = ephemeral)",
};
const UPSTREAM: Flag = Flag {
    name: "--upstream",
    value: Value::Text("HOST:PORT"),
    help: "the real server (default 127.0.0.1:7199)",
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Value::Number("N"),
    help: "fault-schedule seed (default 42)",
};
const DELAY_PCT: Flag = Flag {
    name: "--delay-pct",
    value: Value::Number("N"),
    help: "percent of exchanges delayed (default 0)",
};
const RESET_PCT: Flag = Flag {
    name: "--reset-pct",
    value: Value::Number("N"),
    help: "percent of exchanges reset mid-response (default 0)",
};
const TRUNCATE_PCT: Flag = Flag {
    name: "--truncate-pct",
    value: Value::Number("N"),
    help: "percent of exchanges with a byte-truncated response (default 0)",
};
const BITFLIP_PCT: Flag = Flag {
    name: "--bitflip-pct",
    value: Value::Number("N"),
    help: "percent of exchanges with one payload bit flipped (default 0)",
};
const BLACKHOLE_PCT: Flag = Flag {
    name: "--blackhole-pct",
    value: Value::Number("N"),
    help: "percent of exchanges accepted but never answered (default 0)",
};
const DELAY_MS: Flag = Flag {
    name: "--delay-ms",
    value: Value::Number("N"),
    help: "hold time for delayed/black-holed exchanges (default 20)",
};

const SPEC: Spec = Spec {
    name: "chaos",
    about: "seeded fault-injection TCP proxy for the PolyFlow server",
    flags: &[
        LISTEN,
        UPSTREAM,
        SEED,
        DELAY_PCT,
        RESET_PCT,
        TRUNCATE_PCT,
        BITFLIP_PCT,
        BLACKHOLE_PCT,
        DELAY_MS,
    ],
    operands: Operands::None,
    notes: "Operators: delay, conn-reset mid-line, byte-truncated response,\n\
            payload bit-flip (caught by the client's integrity trailer), and\n\
            black-holed accepts. The remainder of the distribution passes\n\
            exchanges through untouched. Percentages must sum to at most 100.\n",
};

fn main() {
    let args = cli::parse(&SPEC);
    let listen = args.text(&LISTEN).unwrap_or("127.0.0.1:7190");
    let pct = |flag: &Flag| {
        let p: u32 = args.number(flag).unwrap_or(0);
        if p > 100 {
            args.fail(&format!("{} must be at most 100, got {p}", flag.name));
        }
        p
    };
    let mut config = ChaosConfig::clean(
        args.text(&UPSTREAM).unwrap_or("127.0.0.1:7199"),
        args.number(&SEED).unwrap_or(42),
    );
    config.delay_pct = pct(&DELAY_PCT);
    config.reset_pct = pct(&RESET_PCT);
    config.truncate_pct = pct(&TRUNCATE_PCT);
    config.bitflip_pct = pct(&BITFLIP_PCT);
    config.blackhole_pct = pct(&BLACKHOLE_PCT);
    config.delay = args
        .number(&DELAY_MS)
        .map_or(config.delay, Duration::from_millis);
    let total = config.delay_pct
        + config.reset_pct
        + config.truncate_pct
        + config.bitflip_pct
        + config.blackhole_pct;
    if total > 100 {
        args.fail(&format!("fault percentages sum to {total} (> 100)"));
    }

    signal::install();
    let upstream = config.upstream.clone();
    let mut proxy = match ChaosProxy::spawn(listen, config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chaos: cannot bind {listen}: {e}");
            exit(1);
        }
    };
    eprintln!(
        "[chaos] listening on {} -> upstream {upstream}",
        proxy.addr()
    );
    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let counts = proxy.counts();
    proxy.shutdown();
    let (clean, delay, reset, truncate, bitflip, blackhole) = counts.snapshot();
    eprintln!(
        "[chaos] exchanges: {clean} clean, {delay} delayed, {reset} reset, \
         {truncate} truncated, {bitflip} bit-flipped, {blackhole} black-holed"
    );
}
