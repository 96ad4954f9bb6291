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

use polyflow_serve::router::{Router, RouterConfig};
use polyflow_serve::signal;
use std::process::exit;
use std::time::Duration;

struct Opt {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

const OPTS: &[Opt] = &[
    Opt {
        name: "--addr",
        value: "HOST:PORT",
        help: "listen address (default 127.0.0.1:7190; port 0 = ephemeral)",
    },
    Opt {
        name: "--backends",
        value: "H:P,H:P,...",
        help: "comma-separated serve backend addresses (required)",
    },
    Opt {
        name: "--replicas",
        value: "N",
        help: "virtual ring points per backend (default 100)",
    },
    Opt {
        name: "--check-interval-ms",
        value: "N",
        help: "health-check cadence (default 250)",
    },
    Opt {
        name: "--eject-after",
        value: "N",
        help: "consecutive failures before ejecting a backend (default 2)",
    },
    Opt {
        name: "--readmit-after",
        value: "N",
        help: "consecutive healthy checks before readmission (default 2)",
    },
    Opt {
        name: "--io-timeout-ms",
        value: "N",
        help: "deadline of each forward attempt and health check, connect included (default 30000)",
    },
    Opt {
        name: "--max-cycles",
        value: "N",
        help: "default cycle budget; MUST match the backends' --max-cycles \
               so routing keys align with their cache keys (default 50000000)",
    },
    Opt {
        name: "--max-line",
        value: "BYTES",
        help: "longest accepted request line (default 1048576)",
    },
];

fn usage() -> String {
    let mut out = String::from(
        "router — consistent-hash sharding router for PolyFlow serve backends\n\n\
         Usage: router --backends H:P,H:P [flags]\n\nFlags:\n",
    );
    let width = OPTS
        .iter()
        .map(|o| o.name.len() + 1 + o.value.len())
        .max()
        .unwrap_or(0);
    for o in OPTS {
        let lhs = format!("{} {}", o.name, o.value);
        out.push_str(&format!("  {lhs:<width$}  {}\n", o.help));
    }
    out.push_str(&format!(
        "  {:<width$}  print this help and exit\n",
        "--help"
    ));
    out.push_str(
        "\nA request's reply is forwarded verbatim from the backend that owns its\n\
         cache key; `stats` aggregates per-backend health, ring ownership, and\n\
         counters; `shutdown` (or SIGTERM) drains the router, not the backends.\n",
    );
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("router: {msg}\n\n{}", usage());
    exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7190".to_string();
    let mut backends: Vec<String> = Vec::new();
    let mut config = RouterConfig::new(Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            print!("{}", usage());
            return;
        }
        let (name, inline) = match a.split_once('=') {
            Some((n, v)) => (n.to_string(), Some(v.to_string())),
            None => (a, None),
        };
        if !OPTS.iter().any(|o| o.name == name) {
            fail(&format!("unknown flag `{name}`"));
        }
        let value = inline
            .or_else(|| args.next())
            .unwrap_or_else(|| fail(&format!("flag `{name}` requires a value")));
        let num = || -> u64 {
            value.parse().unwrap_or_else(|_| {
                fail(&format!("flag `{name}` requires a number, got `{value}`"))
            })
        };
        match name.as_str() {
            "--addr" => addr = value.clone(),
            "--backends" => {
                backends = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--replicas" => config.replicas = num().max(1) as usize,
            "--check-interval-ms" => config.check_interval = Duration::from_millis(num().max(1)),
            "--eject-after" => config.eject_after = num().max(1) as u32,
            "--readmit-after" => config.readmit_after = num().max(1) as u32,
            "--io-timeout-ms" => config.io_timeout = Duration::from_millis(num().max(1)),
            "--max-cycles" => config.default_max_cycles = num().max(1),
            "--max-line" => config.max_request_line = num().max(64) as usize,
            _ => unreachable!("flag table covers all names"),
        }
    }
    if backends.is_empty() {
        fail("--backends is required (at least one serve address)");
    }
    config.backends = backends;

    signal::install();
    let mut router = match Router::spawn(&addr, config) {
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
