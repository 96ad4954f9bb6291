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

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_serve::{signal, Server, ServiceConfig};
use std::process::exit;
use std::time::Duration;

const ADDR: Flag = Flag {
    name: "--addr",
    value: Value::Text("HOST:PORT"),
    help: "listen address (default 127.0.0.1:7199; port 0 = ephemeral)",
};
const JOBS: Flag = Flag {
    name: "--jobs",
    value: Value::Number("N"),
    help: "simulation workers; each runs one cell at a time (default or 0: POLYFLOW_JOBS, else available CPUs)",
};
const QUEUE: Flag = Flag {
    name: "--queue",
    value: Value::Number("N"),
    help: "bound on admitted cells no worker has started; extra requests are shed (default 64)",
};
const MAX_CYCLES: Flag = Flag {
    name: "--max-cycles",
    value: Value::Number("N"),
    help: "default per-request cycle watchdog (default 50000000)",
};
const CACHE_CAPACITY: Flag = Flag {
    name: "--cache-capacity",
    value: Value::Number("N"),
    help: "result-cache entries; 0 disables caching (default 1024)",
};
const CACHE_DIR: Flag = Flag {
    name: "--cache-dir",
    value: Value::Text("PATH"),
    help: "persist the cache to a crash-safe journal here; warm-starts on boot",
};
const MAX_DEADLINE: Flag = Flag {
    name: "--max-deadline",
    value: Value::Number("MS"),
    help: "cap on per-request deadline_ms (default 60000)",
};
const WRITE_TIMEOUT: Flag = Flag {
    name: "--write-timeout-ms",
    value: Value::Number("N"),
    help:
        "slow-client write watchdog; a blocked response write drops the connection (default 10000)",
};
const MAX_LINE: Flag = Flag {
    name: "--max-line",
    value: Value::Number("BYTES"),
    help: "longest accepted request line; longer gets a typed bad_request (default 1048576)",
};

const SPEC: Spec = Spec {
    name: "serve",
    about: "PolyFlow simulation server (newline-delimited JSON over TCP)",
    flags: &[
        ADDR,
        JOBS,
        QUEUE,
        MAX_CYCLES,
        CACHE_CAPACITY,
        CACHE_DIR,
        MAX_DEADLINE,
        WRITE_TIMEOUT,
        MAX_LINE,
    ],
    operands: Operands::None,
    notes: "Protocol: one JSON request per line, one JSON response per line.\n\
            Verbs: ping, stats, shutdown. Simulation request:\n  \
            {\"workload\":\"twolf\",\"policy\":\"postdoms\",\"config\":{\"max_cycles\":200000}}\n",
};

fn main() {
    let args = cli::parse(&SPEC);
    let addr = args.text(&ADDR).unwrap_or("127.0.0.1:7199");
    let d = ServiceConfig::default();
    let ms = |flag, default| {
        args.number(flag)
            .map_or(default, |n: u64| Duration::from_millis(n.max(1)))
    };
    let mut config = ServiceConfig {
        queue_capacity: args.number(&QUEUE).unwrap_or(d.queue_capacity),
        default_max_cycles: args
            .number(&MAX_CYCLES)
            .map_or(d.default_max_cycles, |n: u64| n.max(1)),
        cache_capacity: args.number(&CACHE_CAPACITY).unwrap_or(d.cache_capacity),
        cache_dir: args.text(&CACHE_DIR).map(Into::into),
        max_deadline: ms(&MAX_DEADLINE, d.max_deadline),
        write_timeout: ms(&WRITE_TIMEOUT, d.write_timeout),
        max_request_line: args
            .number(&MAX_LINE)
            .map_or(d.max_request_line, |n: usize| n.max(64)),
        ..d
    };
    if config.queue_capacity == 0 {
        args.fail("--queue must be at least 1");
    }
    config.jobs = args.jobs();

    signal::install();
    let mut server = match Server::spawn(addr, config) {
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
