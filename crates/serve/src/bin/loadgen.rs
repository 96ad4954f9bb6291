//! Closed-loop load generator for the PolyFlow simulation server.
//!
//! Spawns `--clients` connections that each fire requests back-to-back
//! until `--duration-ms` elapses, mixing repeated hot keys (cache hits
//! after warm-up) with never-before-seen cold keys at `--hit-ratio`.
//! Reports throughput, latency percentiles, and the server's cache/queue
//! counters as one JSON line on stdout (`name`, `jobs`, `cells`,
//! `wall_seconds` and `cells_per_second` first), plus a human summary on
//! stderr.
//!
//! `--verify-fig09` switches to verification: every (workload × Figure 9
//! policy) cell is requested over the wire and compared **byte for byte**
//! against an offline run of the same cell in this process. Any mismatch
//! exits 1. Run it against servers at different `--jobs` and with
//! different `--clients` counts to vary which cells run side by side.
//!
//! Cold keys are real simulations: each one perturbs only the
//! `max_cycles` watchdog (a config field that cannot change a completing
//! run's result but does change the cache key), so a cold request is a
//! full simulator run while a hot request is a cache lookup — the
//! hot/cold throughput gap is the value of the cache.

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_bench::stopwatch::percentile;
use polyflow_bench::sweep::{figure9_cells, run_cell_with_config_opts};
use polyflow_isa::rng::SplitMix64;
use polyflow_serve::client::{Client, ClientConfig, Outcome};
use polyflow_serve::json::{self, Json, Style, Writer};
use polyflow_serve::protocol::{parse_request, result_response, Request};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ADDR: Flag = Flag {
    name: "--addr",
    value: Value::Text("HOST:PORT"),
    help: "server address (default 127.0.0.1:7199)",
};
const TARGETS: Flag = Flag {
    name: "--targets",
    value: Value::Text("H:P,H:P,..."),
    help: "fan clients out across several servers round-robin; adds per-backend latency and error splits to the report",
};
const CLIENTS: Flag = Flag {
    name: "--clients",
    value: Value::Number("N"),
    help: "concurrent closed-loop connections (default 4)",
};
const OPEN: Flag = Flag {
    name: "--open",
    value: Value::Number("N"),
    help: "connection-capacity probe: open N concurrent idle connections (ping each) and report the sustained count",
};
const DURATION: Flag = Flag {
    name: "--duration-ms",
    value: Value::Number("N"),
    help: "load duration (default 2000)",
};
const HIT_RATIO: Flag = Flag {
    name: "--hit-ratio",
    value: Value::Number("PCT"),
    help: "percent of requests aimed at the repeated hot keys (default 90)",
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Value::Number("N"),
    help: "SplitMix64 seed; same seed + same server state = same request stream (default 42)",
};
const MAX_CYCLES: Flag = Flag {
    name: "--max-cycles",
    value: Value::Number("N"),
    help: "cycle budget sent with every request (default 1000000000)",
};
const JOBS: Flag = Flag {
    name: "--jobs",
    value: Value::Number("N"),
    help: "offline worker threads for --verify-fig09 (default or 0: POLYFLOW_JOBS, else available CPUs)",
};
const RETRIES: Flag = Flag {
    name: "--retries",
    value: Value::Number("N"),
    help: "retries per request on transport failures / retryable errors (default 0)",
};
const RETRY_BUDGET: Flag = Flag {
    name: "--retry-budget",
    value: Value::Number("N"),
    help: "total retries allowed across the whole run per client thread (default: unlimited)",
};
const DEADLINE: Flag = Flag {
    name: "--deadline-ms",
    value: Value::Number("N"),
    help: "per-request deadline sent to the server (default: none)",
};
const INTEGRITY: Flag = Flag {
    name: "--integrity",
    value: Value::Switch,
    help: "request and verify the FNV-1a integrity trailer on every reply",
};
const VERIFY: Flag = Flag {
    name: "--verify-fig09",
    value: Value::Switch,
    help: "verify every Figure 9 cell byte-for-byte against an offline run",
};

const SPEC: Spec = Spec {
    name: "loadgen",
    about: "closed-loop load generator and determinism verifier for `serve`",
    flags: &[
        ADDR,
        TARGETS,
        CLIENTS,
        OPEN,
        DURATION,
        HIT_RATIO,
        SEED,
        MAX_CYCLES,
        JOBS,
        RETRIES,
        RETRY_BUDGET,
        DEADLINE,
        INTEGRITY,
        VERIFY,
    ],
    operands: Operands::None,
    notes: "",
};

struct Config {
    addr: String,
    targets: Vec<String>,
    clients: usize,
    duration: Duration,
    hit_ratio: u64,
    seed: u64,
    max_cycles: u64,
    retries: u32,
    retry_budget: Option<u64>,
    deadline_ms: Option<u64>,
    integrity: bool,
}

impl Config {
    fn new(args: &cli::Args) -> Config {
        Config {
            addr: args.text(&ADDR).unwrap_or("127.0.0.1:7199").to_string(),
            targets: args.list(&TARGETS),
            clients: args.number(&CLIENTS).map_or(4, |n: usize| n.max(1)),
            duration: Duration::from_millis(args.number(&DURATION).unwrap_or(2000)),
            hit_ratio: args.number(&HIT_RATIO).map_or(90, |n: u64| n.min(100)),
            seed: args.number(&SEED).unwrap_or(42),
            max_cycles: args
                .number(&MAX_CYCLES)
                .map_or(1_000_000_000, |n: u64| n.max(1)),
            retries: args.number(&RETRIES).unwrap_or(0),
            retry_budget: args.number(&RETRY_BUDGET),
            deadline_ms: args.number(&DEADLINE).map(|n: u64| n.max(1)),
            integrity: args.switch(&INTEGRITY),
        }
    }
}

/// One request/response exchange on an established connection.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer
        .write_all(framed.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("server hung up".to_string()),
        Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot connect to {addr}: {e}");
        exit(1);
    });
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// The repeated hot-key roster: a small representative workload subset
/// (the ablation binary's) crossed with the headline policy and the
/// baseline.
const HOT_WORKLOADS: &[&str] = &["mcf", "vortex", "twolf", "crafty"];
const HOT_POLICIES: &[&str] = &["postdoms", "baseline"];

/// One simulate request line: `workload` under `policy` with a
/// `max_cycles` budget, and the `--deadline-ms` when one is set.
fn request_line(workload: &str, policy: &str, max_cycles: u64, deadline_ms: Option<u64>) -> String {
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("workload").str(workload);
        w.key("policy").str(policy);
        w.key("config").object(|w| {
            w.key("max_cycles").u64(max_cycles);
        });
        if let Some(ms) = deadline_ms {
            w.key("deadline_ms").u64(ms);
        }
    });
    w.finish()
}

fn hot_line(n: usize, max_cycles: u64, deadline_ms: Option<u64>) -> String {
    let w = HOT_WORKLOADS[(n / HOT_POLICIES.len()) % HOT_WORKLOADS.len()];
    let p = HOT_POLICIES[n % HOT_POLICIES.len()];
    request_line(w, p, max_cycles, deadline_ms)
}

fn cold_line(
    counter: u64,
    max_cycles: u64,
    deadline_ms: Option<u64>,
    rng: &mut SplitMix64,
) -> String {
    let w = HOT_WORKLOADS[rng.index(HOT_WORKLOADS.len())];
    // A unique max_cycles value: a fresh cache key, the same result.
    request_line(w, "postdoms", max_cycles + 1 + counter, deadline_ms)
}

/// The servers this run drives: `--targets` when given, `--addr` alone
/// otherwise. Client threads are dealt across them round-robin.
fn resolve_targets(cfg: &Config) -> Vec<String> {
    if cfg.targets.is_empty() {
        vec![cfg.addr.clone()]
    } else {
        cfg.targets.clone()
    }
}

/// The retry client policy for one loadgen thread.
fn client_config(cfg: &Config, addr: &str, salt: u64) -> ClientConfig {
    ClientConfig {
        max_retries: cfg.retries,
        retry_budget: cfg.retry_budget,
        io_timeout: Duration::from_secs(5),
        require_integrity: cfg.integrity,
        seed: cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..ClientConfig::new(addr.to_string())
    }
}

/// What one loadgen thread brings home.
struct ThreadTally {
    latencies: Vec<Duration>,
    ok: u64,
    typed: u64,
    transport: u64,
    corrupt: u64,
    retries: u64,
    /// Replies under its own consistency check failed: two accepted
    /// `ok` replies for the same request line disagreed.
    wrong: u64,
    /// line → first accepted reply, for the cross-thread check.
    accepted: HashMap<String, String>,
    first_error: Option<String>,
    /// Index into the target list this thread was dealt.
    target: usize,
}

/// Per-backend aggregate, reported when `--targets` names several.
struct BackendTally {
    addr: String,
    latencies: Vec<Duration>,
    ok: u64,
    typed: u64,
    transport: u64,
}

fn run_load(cfg: &Config) -> ! {
    let hot_keys = HOT_WORKLOADS.len() * HOT_POLICIES.len();
    let deadline_ms = cfg.deadline_ms;
    let targets = resolve_targets(cfg);

    // Warm every backend's cache so a high hit ratio measures the
    // cache, not the first-touch simulations. Best-effort: under chaos
    // a warm-up line may exhaust its retries, which only lowers the
    // measured hit rate.
    for target in &targets {
        let mut warm = Client::new(client_config(cfg, target, u64::MAX));
        let warmed = (0..hot_keys)
            .filter(|&n| {
                warm.request(&hot_line(n, cfg.max_cycles, deadline_ms))
                    .ok()
                    .is_some()
            })
            .count();
        if warmed < hot_keys {
            eprintln!(
                "[loadgen] warm-up incomplete on {target}: {warmed}/{hot_keys} hot keys cached"
            );
        }
    }

    let cold_counter = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let mut handles = Vec::new();
    for client_index in 0..cfg.clients {
        let target = client_index % targets.len();
        let config = client_config(cfg, &targets[target], client_index as u64);
        let hit_ratio = cfg.hit_ratio;
        let max_cycles = cfg.max_cycles;
        let seed = cfg.seed;
        let cold_counter = Arc::clone(&cold_counter);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(seed ^ (client_index as u64).wrapping_mul(0x9e37));
            let mut client = Client::new(config);
            let mut tally = ThreadTally {
                latencies: Vec::new(),
                ok: 0,
                typed: 0,
                transport: 0,
                corrupt: 0,
                retries: 0,
                wrong: 0,
                accepted: HashMap::new(),
                first_error: None,
                target,
            };
            while Instant::now() < deadline {
                let line = if rng.below(100) < hit_ratio {
                    hot_line(rng.index(hot_keys), max_cycles, deadline_ms)
                } else {
                    let n = cold_counter.fetch_add(1, Ordering::Relaxed);
                    cold_line(n, max_cycles, deadline_ms, &mut rng)
                };
                let t0 = Instant::now();
                match client.request(&line) {
                    Outcome::Ok(reply) => {
                        tally.ok += 1;
                        tally.latencies.push(t0.elapsed());
                        match tally.accepted.get(&line) {
                            Some(prev) if prev != &reply => tally.wrong += 1,
                            Some(_) => {}
                            None => {
                                tally.accepted.insert(line, reply);
                            }
                        }
                    }
                    Outcome::ServerError { kind, message } => {
                        tally.typed += 1;
                        tally
                            .first_error
                            .get_or_insert(format!("{kind}: {message}"));
                    }
                    Outcome::Transport { last_error } => {
                        tally.transport += 1;
                        tally.first_error.get_or_insert(last_error);
                    }
                }
            }
            let s = client.stats();
            tally.corrupt = s.corrupt;
            tally.retries = s.retries;
            tally
        }));
    }

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut ok, mut typed, mut transport, mut corrupt, mut retries, mut wrong) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut first_error: Option<String> = None;
    // The cross-thread consistency check: every thread that accepted a
    // reply for the same request line must have accepted the same bytes.
    // With `--targets` this spans backends, so it is also the
    // cross-shard byte-identity check.
    let mut accepted: HashMap<String, String> = HashMap::new();
    let mut backends: Vec<BackendTally> = targets
        .iter()
        .map(|a| BackendTally {
            addr: a.clone(),
            latencies: Vec::new(),
            ok: 0,
            typed: 0,
            transport: 0,
        })
        .collect();
    for h in handles {
        let t = h.join().expect("client thread");
        let b = &mut backends[t.target];
        b.ok += t.ok;
        b.typed += t.typed;
        b.transport += t.transport;
        b.latencies.extend(t.latencies.iter().copied());
        latencies.extend(t.latencies);
        ok += t.ok;
        typed += t.typed;
        transport += t.transport;
        corrupt += t.corrupt;
        retries += t.retries;
        wrong += t.wrong;
        if first_error.is_none() {
            first_error = t.first_error;
        }
        for (line, reply) in t.accepted {
            match accepted.get(&line) {
                Some(prev) if prev != &reply => wrong += 1,
                Some(_) => {}
                None => {
                    accepted.insert(line, reply);
                }
            }
        }
    }
    let wall = started.elapsed();

    // The server's own counters — via a plain (trailer-less) client, as
    // the `stats` verb does not carry the integrity trailer. With one
    // target they land in the top-level `cache`/`queue` fields as
    // always; with several, each backend entry carries its own and the
    // top-level fields are null (an aggregate would be misleading).
    let multi = targets.len() > 1;
    let stats = if multi {
        Json::Null
    } else {
        let stats_line = match fetch_stats(cfg, &targets[0]) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("loadgen: stats fetch failed: {e}");
                exit(1);
            }
        };
        json::parse(&stats_line).unwrap_or_else(|e| {
            eprintln!("loadgen: stats response unparsable: {e}");
            exit(1);
        })
    };

    // Per-backend latency percentiles (ms) and cache counters, plus
    // stderr detail lines.
    let mut per_backend = Vec::new();
    if multi {
        for b in &mut backends {
            let ms =
                [50.0, 90.0, 99.0].map(|p| percentile(&mut b.latencies, p).as_secs_f64() * 1e3);
            let stats = fetch_stats(cfg, &b.addr)
                .ok()
                .and_then(|line| json::parse(&line).ok())
                .unwrap_or(Json::Null);
            per_backend.push((ms, stats));
        }
    }

    let p50 = percentile(&mut latencies, 50.0);
    let p90 = percentile(&mut latencies, 90.0);
    let p99 = percentile(&mut latencies, 99.0);
    let errors = typed + transport;
    let total = ok + errors;
    let throughput = ok as f64 / wall.as_secs_f64().max(1e-9);

    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("name").str("loadgen");
        w.key("jobs").u64(cfg.clients as u64);
        w.key("cells").u64(total);
        w.key("wall_seconds").fixed(wall.as_secs_f64(), 6);
        w.key("cells_per_second").fixed(throughput, 3);
        w.key("ok").u64(ok);
        w.key("errors").object(|w| {
            w.key("total").u64(errors);
            w.key("typed").u64(typed);
            w.key("transport").u64(transport);
            w.key("corrupt").u64(corrupt);
        });
        w.key("retries").u64(retries);
        w.key("wrong").u64(wrong);
        w.key("hit_ratio_pct").u64(cfg.hit_ratio);
        write_latency_ms(w, [p50, p90, p99].map(|d| d.as_secs_f64() * 1e3));
        w.key("cache").value(stats_field(&stats, "cache"));
        w.key("queue").value(stats_field(&stats, "queue"));
        if multi {
            w.key("backends").array(|w| {
                for (b, (ms, stats)) in backends.iter().zip(&per_backend) {
                    w.object(|w| {
                        w.key("addr").str(&b.addr);
                        w.key("ok").u64(b.ok);
                        w.key("errors").object(|w| {
                            w.key("typed").u64(b.typed);
                            w.key("transport").u64(b.transport);
                        });
                        write_latency_ms(w, *ms);
                        w.key("cache").value(stats_field(stats, "cache"));
                    });
                }
            });
        }
    });
    println!("{}", w.finish());
    eprintln!(
        "[loadgen] {ok} ok / {typed} typed + {transport} transport errors \
         ({retries} retries, {corrupt} corrupt replies rejected, {wrong} wrong answers) \
         in {:.2}s with {} clients ({throughput:.1} req/s; p50 {:.2}ms p99 {:.2}ms)",
        wall.as_secs_f64(),
        cfg.clients,
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );
    for (b, ([bp50, bp90, bp99], _)) in backends.iter().zip(&per_backend) {
        eprintln!(
            "[loadgen]   {}: {} ok / {} typed + {} transport \
             (p50 {bp50:.2}ms p90 {bp90:.2}ms p99 {bp99:.2}ms)",
            b.addr, b.ok, b.typed, b.transport,
        );
    }
    if let Some(e) = first_error {
        eprintln!("[loadgen] first error: {e}");
    }
    exit(if ok > 0 && wrong == 0 { 0 } else { 1 });
}

/// The report's `latency_ms` member: p50, p90 and p99 in milliseconds.
fn write_latency_ms(w: &mut Writer, [p50, p90, p99]: [f64; 3]) {
    w.key("latency_ms").object(|w| {
        w.key("p50").fixed(p50, 3);
        w.key("p90").fixed(p90, 3);
        w.key("p99").fixed(p99, 3);
    });
}

/// `stats.<field>` of a parsed stats reply, or `null`.
fn stats_field<'a>(stats: &'a Json, field: &str) -> &'a Json {
    static NULL: Json = Json::Null;
    stats
        .get("stats")
        .and_then(|s| s.get(field))
        .unwrap_or(&NULL)
}

/// One `stats` exchange against `addr` through the retry client.
fn fetch_stats(cfg: &Config, addr: &str) -> Result<String, String> {
    let mut client = Client::new(ClientConfig {
        require_integrity: false,
        max_retries: cfg.retries.max(4),
        ..client_config(cfg, addr, u64::MAX - 1)
    });
    match client.request("stats") {
        Outcome::Ok(line) => Ok(line),
        other => Err(format!("{other:?}")),
    }
}

/// Requests every (workload × Figure 9 cell) over the wire — spread
/// round-robin across `--clients` connections so concurrent cells mix
/// workloads and policies — then replays each cell offline through the *same*
/// entry point the server uses and diffs the bytes.
fn run_verify(cfg: &Config, jobs: usize) -> ! {
    let workloads = polyflow_workloads::names();
    let cells = figure9_cells();
    let mut lines: Vec<String> = Vec::new();
    for w in workloads {
        for cell in &cells {
            lines.push(request_line(w, &cell.label(), cfg.max_cycles, None));
        }
    }

    // Served bytes, `--clients` ways round-robin (and across
    // `--targets` backends, when several are named).
    let targets = resolve_targets(cfg);
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..cfg.clients {
        let addr = targets[client % targets.len()].clone();
        let mine: Vec<(usize, String)> = lines
            .iter()
            .enumerate()
            .skip(client)
            .step_by(cfg.clients)
            .map(|(i, l)| (i, l.clone()))
            .collect();
        handles.push(std::thread::spawn(move || {
            let (mut w, mut r) = connect(&addr);
            mine.into_iter()
                .map(|(i, line)| {
                    let reply = exchange(&mut w, &mut r, &line)
                        .unwrap_or_else(|e| format!("<transport error: {e}>"));
                    (i, reply)
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut served: Vec<Option<String>> = vec![None; lines.len()];
    for h in handles {
        for (i, reply) in h.join().expect("verify client") {
            served[i] = Some(reply);
        }
    }
    let served_wall = started.elapsed();

    // Offline replay: same request line → same parsed config → same
    // simulator entry point → same rendering.
    eprintln!(
        "[loadgen] verifying {} cells offline ({} workloads × {} cells)…",
        lines.len(),
        workloads.len(),
        cells.len()
    );
    let prepared = polyflow_bench::prepare_all_jobs(&[], jobs);
    let expected: Vec<String> =
        polyflow_bench::pool::parallel_map(lines.clone(), jobs, |_, line| {
            let Ok(Request::Simulate(req)) = parse_request(&line, u64::MAX) else {
                panic!("loadgen generated an invalid request: {line}");
            };
            let w = prepared
                .iter()
                .find(|p| p.name == req.workload_label())
                .expect("workload was prepared");
            let mut scratch = polyflow_sim::SimScratch::default();
            let opts = polyflow_sim::SimOptions::default();
            match run_cell_with_config_opts(w, req.cell, &req.config, &mut scratch, opts) {
                Ok((result, _)) => {
                    result_response(req.workload_label(), &req.policy_label(), &result)
                }
                Err(e) => format!("<offline sim error: {e}>"),
            }
        });

    let mut mismatches = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let got = served[i].as_deref().unwrap_or("<no response>");
        if got != expected[i] {
            mismatches += 1;
            eprintln!("[loadgen] MISMATCH for {line}");
            eprintln!("  served : {}", &got[..got.len().min(160)]);
            eprintln!("  offline: {}", &expected[i][..expected[i].len().min(160)]);
        }
    }
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("name").str("loadgen-verify");
        w.key("jobs").u64(cfg.clients as u64);
        w.key("cells").u64(lines.len() as u64);
        w.key("wall_seconds").fixed(served_wall.as_secs_f64(), 6);
        w.key("cells_per_second")
            .fixed(lines.len() as f64 / served_wall.as_secs_f64().max(1e-9), 3);
        w.key("mismatches").u64(mismatches as u64);
    });
    println!("{}", w.finish());
    if mismatches == 0 {
        eprintln!(
            "[loadgen] verified: {} served cells byte-identical to offline runs",
            lines.len()
        );
        exit(0);
    }
    eprintln!("[loadgen] {mismatches} mismatched cell(s)");
    exit(1);
}

/// Connection-capacity probe: opens up to `target` concurrent
/// connections against one server, pinging each as it opens, then
/// re-pings every held connection to prove the server still answers on
/// all of them. A connect failure, a hangup, or an unanswered ping ends
/// the climb. Run it against two server builds and compare the plateau
/// — this is the apples-to-apples concurrency measurement.
fn run_open(addr_str: &str, addr: SocketAddr, target: u64) -> ! {
    let started = Instant::now();
    let mut held: Vec<TcpStream> = Vec::with_capacity(target.min(1 << 20) as usize);
    let mut failure: Option<String> = None;
    while (held.len() as u64) < target {
        match probe_connect(&addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
        if held.len().is_multiple_of(2000) {
            eprintln!("[loadgen] {} connections open…", held.len());
        }
    }
    let opened = held.len();
    // Every held connection must still answer — an accepted-then-
    // dropped connection does not count as sustained.
    let mut alive = 0usize;
    for s in &mut held {
        if ping_once(s).is_ok() {
            alive += 1;
        }
    }
    let wall = started.elapsed();
    let mut w = Writer::new(Style::Compact);
    w.object(|w| {
        w.key("name").str("loadgen-open");
        w.key("jobs").u64(1);
        w.key("cells").u64(target);
        w.key("wall_seconds").fixed(wall.as_secs_f64(), 6);
        w.key("cells_per_second")
            .fixed(alive as f64 / wall.as_secs_f64().max(1e-9), 3);
        w.key("target").u64(target);
        w.key("opened").u64(opened as u64);
        w.key("alive").u64(alive as u64);
    });
    println!("{}", w.finish());
    eprintln!(
        "[loadgen] open probe against {addr_str}: {opened}/{target} opened, \
         {alive} still answering after {:.2}s",
        wall.as_secs_f64()
    );
    if let Some(e) = failure {
        eprintln!("[loadgen] climb ended by: {e}");
    }
    exit(if alive as u64 == target { 0 } else { 1 });
}

/// One probe connection: connect with a bounded timeout and require a
/// pong before it counts.
fn probe_connect(addr: &SocketAddr) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect_timeout(addr, Duration::from_secs(2))
        .map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    s.set_write_timeout(Some(Duration::from_secs(5))).ok();
    ping_once(&mut s)?;
    Ok(s)
}

/// A single ping/pong on an established connection, without the fd
/// overhead of a cloned reader (the probe holds thousands open).
fn ping_once(s: &mut TcpStream) -> Result<(), String> {
    use std::io::Read;
    s.write_all(b"ping\n").map_err(|e| format!("write: {e}"))?;
    let mut got = Vec::with_capacity(64);
    let mut buf = [0u8; 256];
    loop {
        let n = s.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server hung up".to_string());
        }
        got.extend_from_slice(&buf[..n]);
        if got.contains(&b'\n') {
            break;
        }
        if got.len() > 4096 {
            return Err("oversized ping reply".to_string());
        }
    }
    let line = String::from_utf8_lossy(&got);
    if line.contains("\"pong\"") {
        Ok(())
    } else {
        Err(format!("unexpected ping reply: {}", line.trim()))
    }
}

fn main() {
    let args = cli::parse(&SPEC);
    let cfg = Config::new(&args);
    if let Some(n) = args.number::<u64>(&OPEN) {
        let mut targets = resolve_targets(&cfg);
        if targets.len() > 1 {
            args.fail(&format!(
                "--open probes one server, but --targets names {}",
                targets.len()
            ));
        }
        let addr = targets.remove(0);
        let resolved = addr.to_socket_addrs().ok().and_then(|mut it| it.next());
        let resolved = resolved.unwrap_or_else(|| args.fail(&format!("cannot resolve `{addr}`")));
        run_open(&addr, resolved, n.max(1));
    }
    if args.switch(&VERIFY) {
        run_verify(&cfg, args.jobs());
    }
    run_load(&cfg);
}
