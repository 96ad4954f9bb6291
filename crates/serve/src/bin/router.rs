//! The PolyFlow sharding router.
//!
//! Spreads simulation requests across N `serve` backends on a
//! consistent-hash ring keyed by the request's cache key, with health
//! checks, automatic ejection/readmission, and failover (see
//! `polyflow_serve::router` and DESIGN.md §16). Runs until SIGINT,
//! SIGTERM, or a `shutdown` request, then drains in-flight connections
//! and exits 0.
//!
//! ```text
//! router --addr 127.0.0.1:7190 --backends 127.0.0.1:7199,127.0.0.1:7200
//! printf '{"workload":"twolf","policy":"postdoms"}\n' | nc 127.0.0.1 7190
//! ```

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_serve::router::{Router, RouterConfig};
use polyflow_serve::signal;
use std::process::exit;
use std::time::Duration;

const ADDR: Flag = Flag {
    name: "--addr",
    value: Value::Text("HOST:PORT"),
    help: "listen address (default 127.0.0.1:7190; port 0 = ephemeral)",
};
const BACKENDS: Flag = Flag {
    name: "--backends",
    value: Value::Text("H:P,H:P,..."),
    help: "comma-separated serve backend addresses (required)",
};
const REPLICAS: Flag = Flag {
    name: "--replicas",
    value: Value::Number("N"),
    help: "virtual ring points per backend (default 100)",
};
const CHECK_INTERVAL: Flag = Flag {
    name: "--check-interval-ms",
    value: Value::Number("N"),
    help: "health-check cadence (default 250)",
};
const EJECT_AFTER: Flag = Flag {
    name: "--eject-after",
    value: Value::Number("N"),
    help: "consecutive failures before ejecting a backend (default 2)",
};
const READMIT_AFTER: Flag = Flag {
    name: "--readmit-after",
    value: Value::Number("N"),
    help: "consecutive healthy checks before readmission (default 2)",
};
const IO_TIMEOUT: Flag = Flag {
    name: "--io-timeout-ms",
    value: Value::Number("N"),
    help: "deadline of each forward attempt and health check, connect included (default 30000)",
};
const MAX_CYCLES: Flag = Flag {
    name: "--max-cycles",
    value: Value::Number("N"),
    help: "default cycle budget; MUST match the backends' --max-cycles \
           so routing keys align with their cache keys (default 50000000)",
};
const MAX_LINE: Flag = Flag {
    name: "--max-line",
    value: Value::Number("BYTES"),
    help: "longest accepted request line (default 1048576)",
};

const SPEC: Spec = Spec {
    name: "router",
    about: "consistent-hash sharding router for PolyFlow serve backends",
    flags: &[
        ADDR,
        BACKENDS,
        REPLICAS,
        CHECK_INTERVAL,
        EJECT_AFTER,
        READMIT_AFTER,
        IO_TIMEOUT,
        MAX_CYCLES,
        MAX_LINE,
    ],
    operands: Operands::None,
    notes: "A request's reply is forwarded verbatim from the backend that owns its\n\
            cache key; `stats` aggregates per-backend health, ring ownership, and\n\
            counters; `shutdown` (or SIGTERM) drains the router, not the backends.\n",
};

fn main() {
    let args = cli::parse(&SPEC);
    let addr = args.text(&ADDR).unwrap_or("127.0.0.1:7190");
    let backends = args.list(&BACKENDS);
    if backends.is_empty() {
        args.fail("--backends is required (at least one serve address)");
    }
    let d = RouterConfig::new(backends);
    let at_least_1 = |flag, default| args.number(flag).map_or(default, |n: u32| n.max(1));
    let ms = |flag, default| {
        args.number(flag)
            .map_or(default, |n: u64| Duration::from_millis(n.max(1)))
    };
    let config = RouterConfig {
        replicas: args
            .number(&REPLICAS)
            .map_or(d.replicas, |n: usize| n.max(1)),
        check_interval: ms(&CHECK_INTERVAL, d.check_interval),
        eject_after: at_least_1(&EJECT_AFTER, d.eject_after),
        readmit_after: at_least_1(&READMIT_AFTER, d.readmit_after),
        io_timeout: ms(&IO_TIMEOUT, d.io_timeout),
        default_max_cycles: args
            .number(&MAX_CYCLES)
            .map_or(d.default_max_cycles, |n: u64| n.max(1)),
        max_request_line: args
            .number(&MAX_LINE)
            .map_or(d.max_request_line, |n: usize| n.max(64)),
        ..d
    };

    signal::install();
    let mut router = match Router::spawn(addr, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("router: cannot start on {addr}: {e}");
            exit(1);
        }
    };
    // Machine-parseable first line on stdout: scripts asking for an
    // ephemeral port (`--addr host:0`) read the actually-bound address
    // here instead of scraping stderr.
    println!("ROUTER_ADDR={}", router.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("[router] listening on {}", router.addr());
    router.wait_for_shutdown();
    eprintln!("[router] drained: {} ejections", router.core().ejections());
}
