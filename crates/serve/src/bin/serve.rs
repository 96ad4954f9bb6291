//! The PolyFlow simulation server.
//!
//! Speaks newline-delimited JSON over TCP (see `polyflow_serve::protocol`
//! for the grammar and DESIGN.md §11 for the design). Runs until SIGINT,
//! SIGTERM, or a `shutdown` request, then drains in-flight work and
//! exits 0.
//!
//! ```text
//! serve --addr 127.0.0.1:7199 --jobs 4
//! printf '{"workload":"twolf","policy":"postdoms"}\n' | nc 127.0.0.1 7199
//! ```

use polyflow_serve::{signal, Server, ServiceConfig};
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
        help: "listen address (default 127.0.0.1:7199; port 0 = ephemeral)",
    },
    Opt {
        name: "--jobs",
        value: "N",
        help: "simulation workers; each runs one cell at a time (default or 0: POLYFLOW_JOBS, else available CPUs)",
    },
    Opt {
        name: "--queue",
        value: "N",
        help: "bound on admitted cells no worker has started; extra requests are shed (default 64)",
    },
    Opt {
        name: "--max-cycles",
        value: "N",
        help: "default per-request cycle watchdog (default 50000000)",
    },
    Opt {
        name: "--cache-capacity",
        value: "N",
        help: "result-cache entries; 0 disables caching (default 1024)",
    },
    Opt {
        name: "--cache-dir",
        value: "PATH",
        help: "persist the cache to a crash-safe journal here; warm-starts on boot",
    },
    Opt {
        name: "--max-deadline",
        value: "MS",
        help: "cap on per-request deadline_ms (default 60000)",
    },
    Opt {
        name: "--write-timeout-ms",
        value: "N",
        help: "slow-client write watchdog; a blocked response write drops the connection (default 10000)",
    },
    Opt {
        name: "--max-line",
        value: "BYTES",
        help: "longest accepted request line; longer gets a typed bad_request (default 1048576)",
    },
];

fn usage() -> String {
    let mut out = String::from(
        "serve — PolyFlow simulation server (newline-delimited JSON over TCP)\n\n\
         Usage: serve [flags]\n\nFlags:\n",
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
        "\nProtocol: one JSON request per line, one JSON response per line.\n\
         Verbs: ping, stats, shutdown. Simulation request:\n  \
         {\"workload\":\"twolf\",\"policy\":\"postdoms\",\"config\":{\"max_cycles\":200000}}\n",
    );
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}\n\n{}", usage());
    exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7199".to_string();
    let mut config = ServiceConfig::default();
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
            "--jobs" => config.jobs = num() as usize,
            "--queue" => config.queue_capacity = num() as usize,
            "--max-cycles" => config.default_max_cycles = num().max(1),
            "--cache-capacity" => config.cache_capacity = num() as usize,
            "--cache-dir" => config.cache_dir = Some(value.clone().into()),
            "--max-deadline" => config.max_deadline = Duration::from_millis(num().max(1)),
            "--write-timeout-ms" => config.write_timeout = Duration::from_millis(num().max(1)),
            "--max-line" => config.max_request_line = num().max(64) as usize,
            _ => unreachable!("flag table covers all names"),
        }
    }
    if config.queue_capacity == 0 {
        fail("--queue must be at least 1");
    }
    if config.jobs == 0 {
        config.jobs = polyflow_bench::pool::default_jobs().unwrap_or_else(|e| fail(&e));
    }

    signal::install();
    let mut server = match Server::spawn(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    // Machine-parseable first line on stdout: scripts asking for an
    // ephemeral port (`--addr host:0`) read the actually-bound address
    // here instead of scraping stderr (which still carries the human
    // line below, unchanged for existing tooling).
    println!("SERVE_ADDR={}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("[serve] listening on {}", server.addr());
    server.wait_for_shutdown();
    let stats = server.service().stats();
    eprintln!(
        "[serve] drained: {} completed, {} failed, {} shed; cache {} hits / {} misses",
        stats.completed, stats.failed, stats.shed, stats.cache.hits, stats.cache.misses
    );
    if stats.journal_bytes > 0 || stats.warm_start > 0 {
        eprintln!(
            "[serve] journal: {} bytes on disk, {} entries warm-started this boot",
            stats.journal_bytes, stats.warm_start
        );
    }
}
