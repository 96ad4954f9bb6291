//! End-to-end tests for the sharding router against real in-process
//! backends: byte-identity of routed replies vs a single server vs the
//! offline ground truth, failover with ejection when a backend dies
//! mid-run, stats aggregation, the drain-the-router-not-the-backends
//! shutdown verb, the machine-parseable `SERVE_ADDR=`/`ROUTER_ADDR=`
//! first stdout line of both binaries, and the hop itself: pooled
//! backend connections, a hung backend, a restarted one, stale pooled
//! connections, pipelining, concurrent cold forwards, a faulty link to
//! one backend, and the reply framing (a reply trickled a byte at a
//! time, bytes sent after the newline).

use polyflow_serve::chaos::{ChaosConfig, ChaosProxy};
use polyflow_serve::json;
use polyflow_serve::protocol::{ok_response, parse_request, Request};
use polyflow_serve::router::{routing_key, Ring, Router, RouterConfig};
use polyflow_serve::{ClientConfig, Outcome, RetryClient, Server, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A generous budget every test cell completes within.
const BUDGET: u64 = 1_000_000_000;

fn backend_config() -> ServiceConfig {
    ServiceConfig {
        jobs: 2,
        queue_capacity: 32,
        default_max_cycles: BUDGET,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

/// A fast-reacting router policy over `backends` for tests.
fn router_config(backends: Vec<String>) -> RouterConfig {
    RouterConfig {
        check_interval: Duration::from_millis(50),
        io_timeout: Duration::from_secs(60),
        default_max_cycles: BUDGET,
        ..RouterConfig::new(backends)
    }
}

fn spawn_backends(n: usize) -> Vec<Server> {
    (0..n)
        .map(|_| Server::spawn("127.0.0.1:0", backend_config()).expect("bind backend"))
        .collect()
}

fn addrs(backends: &[Server]) -> Vec<String> {
    backends.iter().map(|b| b.addr().to_string()).collect()
}

/// `n` backends among which the ring gives each at least one of
/// `lines`. The ring hashes the backends' ephemeral addresses, so with
/// a small key set some draws leave a shard with no key at all (about
/// one in eight for 8 keys over 3 shards); such a draw is replaced.
fn spawn_backends_owning(n: usize, lines: &[String]) -> Vec<Server> {
    loop {
        let backends = spawn_backends(n);
        let addrs = addrs(&backends);
        let mut owned = vec![false; n];
        for line in lines {
            owned[owner(&addrs, line)] = true;
        }
        if owned.iter().all(|&o| o) {
            return backends;
        }
    }
}

fn exchange_at(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("{line}\n").as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    assert!(reply.ends_with('\n'), "newline-framed reply: {reply:?}");
    reply.trim_end_matches('\n').to_string()
}

fn sim_line(workload: &str, policy: &str, budget: u64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
         \"config\":{{\"max_cycles\":{budget}}}}}"
    )
}

/// A key set wide enough that every shard owns some of it: distinct
/// `max_cycles` values are distinct cache keys with identical results.
fn test_lines() -> Vec<String> {
    let mut lines = vec![
        sim_line("bzip2", "baseline", BUDGET),
        sim_line("bzip2", "postdoms", BUDGET),
        sim_line("gzip", "baseline", BUDGET),
        sim_line("gzip", "postdoms", BUDGET),
    ];
    for i in 1..=4u64 {
        lines.push(sim_line("gzip", "postdoms", BUDGET + i));
    }
    lines
}

/// The offline ground truth for a simulate line.
fn offline_expected(line: &str) -> String {
    let Ok(Request::Simulate(req)) = parse_request(line, BUDGET) else {
        panic!("not a simulate line: {line}");
    };
    let workload = match &req.source {
        polyflow_serve::SimSource::Bundled(name) => {
            polyflow_workloads::by_name(name).expect("bundled workload")
        }
        polyflow_serve::SimSource::Uploaded(up) => up.workload().clone(),
    };
    let prepared = polyflow_bench::PreparedWorkload::try_prepare(workload).unwrap();
    let mut scratch = polyflow_sim::SimScratch::default();
    let opts = polyflow_sim::SimOptions::default();
    let (result, _) = polyflow_bench::sweep::run_cell_with_config_opts(
        &prepared,
        req.cell,
        &req.config,
        &mut scratch,
        opts,
    )
    .expect("test cell simulates cleanly");
    ok_response(
        req.workload_label(),
        &req.policy_label(),
        &json::compact(&result.to_json()),
    )
}

/// Served ≡ offline, at any shard count: the same request line answered
/// through a 2-shard router, a 3-shard router, and a lone server all
/// produce the same bytes as an offline run in this process.
#[test]
fn routed_replies_are_byte_identical_across_shard_counts() {
    let lines = test_lines();
    let expected: Vec<String> = lines.iter().map(|l| offline_expected(l)).collect();

    let lone = Server::spawn("127.0.0.1:0", backend_config()).expect("bind");
    let lone_addr = lone.addr().to_string();

    for shard_count in [2usize, 3] {
        let backends = spawn_backends_owning(shard_count, &lines);
        let mut router =
            Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
        let router_addr = router.addr().to_string();
        for (line, want) in lines.iter().zip(&expected) {
            let via_router = exchange_at(&router_addr, line);
            assert_eq!(&via_router, want, "router({shard_count} shards) vs offline");
            // Second hit is a backend cache hit relayed verbatim.
            assert_eq!(exchange_at(&router_addr, line), via_router, "cached bytes");
            assert_eq!(&exchange_at(&lone_addr, line), want, "lone server");
        }
        // Every shard took some of the traffic (each owns at least one
        // key of the set; see `spawn_backends_owning`).
        let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
        let router_obj = stats.get("router").expect("router stats object");
        let backends_arr = router_obj
            .get("backends")
            .and_then(json::Json::as_arr)
            .expect("backends array");
        assert_eq!(backends_arr.len(), shard_count);
        let forwarded: Vec<u64> = backends_arr
            .iter()
            .map(|b| b.get("forwarded").and_then(json::Json::as_u64).unwrap())
            .collect();
        assert!(
            forwarded.iter().all(|&f| f > 0),
            "every shard saw traffic: {forwarded:?}"
        );
        router.shutdown();
    }
}

/// Kill one of two backends mid-run: every request still answers with
/// the right bytes via failover, and the router ejects the dead shard.
#[test]
fn backend_death_mid_run_fails_over_without_wrong_answers() {
    let lines = test_lines();
    let mut backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    // Warm every key through the router, recording the accepted bytes.
    let before: Vec<String> = lines.iter().map(|l| exchange_at(&router_addr, l)).collect();
    for r in &before {
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }

    // Take down one backend (its listener closes with it).
    let mut victim = backends.pop().expect("second backend");
    victim.shutdown();
    drop(victim);

    // Every key — including those the dead shard owned — must answer
    // with the same bytes as before the kill, via failover to the
    // survivor (which recomputes cells it never cached; determinism
    // makes that indistinguishable on the wire).
    for (line, want) in lines.iter().zip(&before) {
        assert_eq!(&exchange_at(&router_addr, line), want, "failover bytes");
    }

    // The ejection must be observable: forwarding failures (or the
    // health checker) mark the dead backend down.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if router.core().ejections() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "ejection never recorded");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
    let backends_arr = stats
        .get("router")
        .and_then(|r| r.get("backends"))
        .and_then(json::Json::as_arr)
        .expect("backends array");
    let healthy: Vec<bool> = backends_arr
        .iter()
        .map(|b| b.get("healthy").and_then(json::Json::as_bool).unwrap())
        .collect();
    assert_eq!(healthy, vec![true, false], "dead shard marked unhealthy");
    // The survivor owns the whole ring while its peer is out.
    let ownership: Vec<u64> = backends_arr
        .iter()
        .map(|b| {
            b.get("ownership_permille")
                .and_then(json::Json::as_u64)
                .unwrap()
        })
        .collect();
    assert_eq!(ownership[1], 0, "ejected shard owns nothing");
    assert!(
        ownership[0] >= 1000,
        "survivor owns the ring: {ownership:?}"
    );
    router.shutdown();
}

/// The router's `stats` verb aggregates per-backend health, ownership,
/// spliced backend stats, and cross-backend totals.
#[test]
fn router_stats_aggregate_health_ownership_and_backend_counters() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    let line = sim_line("gzip", "postdoms", BUDGET);
    let first = exchange_at(&router_addr, &line);
    assert!(first.starts_with("{\"ok\":true"), "{first}");
    let again = exchange_at(&router_addr, &line);
    assert_eq!(again, first);

    let stats = json::parse(&exchange_at(&router_addr, "stats")).expect("stats parse");
    let router_obj = stats.get("router").expect("router object");
    assert!(
        router_obj
            .get("requests")
            .and_then(json::Json::as_u64)
            .unwrap()
            >= 3
    );
    let backends_arr = router_obj
        .get("backends")
        .and_then(json::Json::as_arr)
        .expect("backends array");
    let mut ownership_total = 0u64;
    for b in backends_arr {
        assert_eq!(b.get("healthy").and_then(json::Json::as_bool), Some(true));
        ownership_total += b
            .get("ownership_permille")
            .and_then(json::Json::as_u64)
            .unwrap();
        // Each live backend's own stats are spliced in whole.
        let inner = b.get("stats").expect("spliced backend stats");
        assert!(
            inner.get("cache").is_some(),
            "backend stats carry cache counters"
        );
    }
    assert!(
        (998..=1002).contains(&ownership_total),
        "ring ownership sums to ~1000 permille, got {ownership_total}"
    );
    let totals = router_obj.get("totals").expect("totals object");
    assert!(
        totals
            .get("cache_hits")
            .and_then(json::Json::as_u64)
            .unwrap()
            >= 1,
        "the repeat hit shows up in the cross-backend totals"
    );
    router.shutdown();
}

/// The `shutdown` verb drains the router, not the backends.
#[test]
fn shutdown_verb_drains_router_but_not_backends() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let router_addr = router.addr().to_string();

    let reply = exchange_at(&router_addr, "shutdown");
    assert_eq!(reply, "{\"ok\":true,\"draining\":true}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.draining() {
        assert!(Instant::now() < deadline, "router never began draining");
        std::thread::sleep(Duration::from_millis(10));
    }
    router.shutdown();

    // Both backends answer directly, untouched by the router's drain.
    for b in &backends {
        assert_eq!(
            exchange_at(&b.addr().to_string(), "ping"),
            "{\"ok\":true,\"pong\":true}"
        );
    }
}

/// Pin for the machine-parseable bound-address line: the first stdout
/// line of `serve --addr host:0` is `SERVE_ADDR=<addr>` and the
/// address in it answers pings; same for `router` and `ROUTER_ADDR=`.
#[test]
fn bound_address_is_the_first_stdout_line_of_both_binaries() {
    use std::process::{Command, Stdio};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut serve_stdout = BufReader::new(serve.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    serve_stdout.read_line(&mut first).expect("read stdout");
    let serve_addr = first
        .trim_end()
        .strip_prefix("SERVE_ADDR=")
        .unwrap_or_else(|| panic!("first stdout line must be SERVE_ADDR=<addr>, got {first:?}"))
        .to_string();
    assert_eq!(
        exchange_at(&serve_addr, "ping"),
        "{\"ok\":true,\"pong\":true}",
        "the printed address is live"
    );

    let mut router = Command::new(env!("CARGO_BIN_EXE_router"))
        .args(["--addr", "127.0.0.1:0", "--backends", &serve_addr])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn router");
    let mut router_stdout = BufReader::new(router.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    router_stdout.read_line(&mut first).expect("read stdout");
    let router_addr = first
        .trim_end()
        .strip_prefix("ROUTER_ADDR=")
        .unwrap_or_else(|| panic!("first stdout line must be ROUTER_ADDR=<addr>, got {first:?}"))
        .to_string();
    assert_eq!(
        exchange_at(&router_addr, "ping"),
        "{\"ok\":true,\"pong\":true}",
        "the printed router address is live"
    );

    router.kill().expect("kill router");
    let _ = router.wait();
    serve.kill().expect("kill serve");
    let _ = serve.wait();
}

/// A `verify` line for a bundled workload: cheap to answer (a lint
/// pass, then a cache hit), deterministic, and routed like a simulation.
fn verify_line(workload: &str) -> String {
    format!("{{\"verb\":\"verify\",\"workload\":\"{workload}\"}}")
}

/// One persistent client connection, request after request.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn open(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, lines: &[String]) {
        let mut bytes = String::new();
        for line in lines {
            bytes.push_str(line);
            bytes.push('\n');
        }
        self.writer.write_all(bytes.as_bytes()).expect("write");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        assert!(reply.ends_with('\n'), "newline-framed reply: {reply:?}");
        reply.trim_end_matches('\n').to_string()
    }

    fn exchange(&mut self, line: &str) -> String {
        self.send(&[line.to_string()]);
        self.recv()
    }
}

/// The backend index `line` routes to when all `addrs` are live.
fn owner(addrs: &[String], line: &str) -> usize {
    let req = parse_request(line, BUDGET).expect("valid line");
    let key = routing_key(&req).expect("routed request");
    Ring::new(addrs, RouterConfig::new(Vec::new()).replicas)
        .shard_of(&key, &vec![true; addrs.len()])
        .expect("a live backend")
}

fn router_stats(addr: &str) -> json::Json {
    json::parse(&exchange_at(addr, "stats")).expect("stats parse")
}

/// Backend connections are pooled: 200 sequential requests (with health
/// checks running every 50 ms on the same pool) open at most two
/// connections per backend — one for the forward, one for a check that
/// overlaps it.
#[test]
fn sequential_requests_reuse_pooled_backend_connections() {
    let backends = spawn_backends(2);
    let before: Vec<u64> = backends.iter().map(|b| b.transport().accepted).collect();
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let mut client = Client::open(&router.addr().to_string());
    let lines: Vec<String> = polyflow_workloads::NAMES
        .iter()
        .map(|w| verify_line(w))
        .collect();
    for i in 0..200 {
        let reply = client.exchange(&lines[i % lines.len()]);
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    for (b, before) in backends.iter().zip(before) {
        let grew = b.transport().accepted - before;
        assert!(
            grew <= 2,
            "backend {} accepted {grew} connections",
            b.addr()
        );
    }
    let stats = router_stats(&router.addr().to_string());
    let r = stats.get("router").unwrap();
    assert_eq!(r.get("forwarded").and_then(json::Json::as_u64), Some(200));
    assert_eq!(r.get("failovers").and_then(json::Json::as_u64), Some(0));
    router.shutdown();
}

/// A backend that accepts but never answers delays only the keys it
/// owns: the other backend's keys keep answering while that forward is
/// outstanding, and the hung forward fails over once `io_timeout`
/// passes, with the right bytes.
#[test]
fn hung_backend_delays_only_its_own_keys() {
    let io_timeout = Duration::from_secs(2);
    let real = Server::spawn("127.0.0.1:0", backend_config()).expect("bind backend");
    let lines: Vec<String> = polyflow_workloads::NAMES
        .iter()
        .map(|w| verify_line(w))
        .collect();
    // The ring depends on the addresses: take listeners until each side
    // owns at least one of the lines (almost always the first).
    let (hung, backend_addrs) = loop {
        let hung = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![
            real.addr().to_string(),
            hung.local_addr().unwrap().to_string(),
        ];
        let owners: Vec<usize> = lines.iter().map(|l| owner(&addrs, l)).collect();
        if owners.contains(&0) && owners.contains(&1) {
            break (hung, addrs);
        }
    };
    let (fast, slow): (Vec<&String>, Vec<&String>) =
        lines.iter().partition(|l| owner(&backend_addrs, l) == 0);
    // Every answer comes from the real backend; warm it directly.
    let real_addr = real.addr().to_string();
    let expected = |line: &str| exchange_at(&real_addr, line);
    let slow_line = slow[0].clone();
    let slow_want = expected(&slow_line);
    let fast_want: Vec<String> = fast.iter().map(|l| expected(l)).collect();

    let mut router = Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            io_timeout,
            check_interval: Duration::from_secs(60),
            ..router_config(backend_addrs)
        },
    )
    .expect("router");
    let router_addr = router.addr().to_string();
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    let hung_client = {
        let addr = router_addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::open(&addr);
            let t0 = Instant::now();
            c.send(&[slow_line]);
            sent_tx.send(()).unwrap();
            let reply = c.recv();
            (reply, t0.elapsed())
        })
    };
    sent_rx.recv().unwrap();
    let t0 = Instant::now();
    let mut client = Client::open(&router_addr);
    for (line, want) in fast.iter().zip(&fast_want) {
        assert_eq!(&client.exchange(line), want, "live shard's key");
    }
    assert!(
        t0.elapsed() < io_timeout / 2,
        "live keys waited on the hung backend: {:?}",
        t0.elapsed()
    );
    assert!(!hung_client.is_finished(), "hung forward still outstanding");
    let (reply, waited) = hung_client.join().unwrap();
    assert_eq!(reply, slow_want, "failover bytes");
    assert!(
        waited >= io_timeout - Duration::from_millis(50),
        "failed over after {waited:?}, before the deadline"
    );
    let stats = router_stats(&router_addr);
    let r = stats.get("router").unwrap();
    assert!(r.get("failovers").and_then(json::Json::as_u64).unwrap() >= 1);
    router.shutdown();
    drop(hung);
}

/// A backend restarted on the same port is served again at once: the
/// pooled connections to the old process are dropped or retried on a
/// new connection, never counted as failures.
#[test]
fn restarted_backend_is_served_without_ejection() {
    let mut first = Server::spawn("127.0.0.1:0", backend_config()).expect("bind backend");
    let addr = first.addr().to_string();
    let mut router = Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            check_interval: Duration::from_secs(60),
            ..router_config(vec![addr.clone()])
        },
    )
    .expect("router");
    let mut client = Client::open(&router.addr().to_string());
    let lines = [verify_line("gzip"), verify_line("mcf")];
    let want: Vec<String> = lines.iter().map(|l| exchange_at(&addr, l)).collect();
    for (line, want) in lines.iter().zip(&want) {
        assert_eq!(&client.exchange(line), want);
    }

    first.shutdown();
    drop(first);
    let _second = Server::spawn(&addr, backend_config()).expect("rebind the same port");
    for _ in 0..3 {
        for (line, want) in lines.iter().zip(&want) {
            assert_eq!(
                &client.exchange(line),
                want,
                "served by the restarted backend"
            );
        }
    }
    assert_eq!(router.core().ejections(), 0);
    let stats = router_stats(&router.addr().to_string());
    let r = stats.get("router").unwrap();
    assert_eq!(r.get("failovers").and_then(json::Json::as_u64), Some(0));
    router.shutdown();
}

/// A pooled connection the backend closes just as a request arrives is
/// retried once on a new connection — a stale retry, neither a failure
/// nor a failover. The fake backend answers one request per connection
/// and hangs up on the second, so every reuse finds a stale connection.
#[test]
fn stale_pooled_connection_is_retried_on_a_new_one() {
    let backend = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = backend.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for (n, conn) in backend.incoming().enumerate() {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut writer = conn.try_clone().unwrap();
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let reply = if line.contains("ping") {
                    "{\"ok\":true,\"pong\":true}\n".to_string()
                } else {
                    format!("{{\"ok\":true,\"conn\":{n}}}\n")
                };
                let _ = writer.write_all(reply.as_bytes());
                // The next request meets a closed connection.
                line.clear();
                let _ = reader.read_line(&mut line);
            });
        }
    });
    let mut router = Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            check_interval: Duration::from_secs(60),
            ..router_config(vec![addr])
        },
    )
    .expect("router");
    let mut client = Client::open(&router.addr().to_string());
    let requests = 5u64;
    for _ in 0..requests {
        let reply = client.exchange(&verify_line("gzip"));
        assert!(reply.starts_with("{\"ok\":true,\"conn\":"), "{reply}");
    }
    let stats = router_stats(&router.addr().to_string());
    let r = stats.get("router").unwrap();
    let count = |v: &json::Json, k: &str| v.get(k).and_then(json::Json::as_u64).unwrap();
    assert_eq!(count(r, "failovers"), 0);
    assert_eq!(count(r, "exhausted"), 0);
    assert_eq!(count(r, "forwarded"), requests);
    let b = &r.get("backends").and_then(json::Json::as_arr).unwrap()[0];
    assert_eq!(
        count(b, "failures"),
        0,
        "a stale connection is not a failure"
    );
    assert!(
        count(r.get("pool").unwrap(), "stale_retries") >= requests - 1,
        "every reuse met a closed connection: {r}"
    );
    assert_eq!(router.core().ejections(), 0);
    router.shutdown();
}

/// Pipelined lines on one client connection come back in request
/// order, whichever backend answers each and however long it takes.
#[test]
fn pipelined_lines_return_in_request_order() {
    let backends = spawn_backends(2);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let mut lines: Vec<String> = polyflow_workloads::NAMES[..7]
        .iter()
        .map(|w| verify_line(w))
        .collect();
    lines.insert(3, "ping".to_string());
    let mut client = Client::open(&router.addr().to_string());
    client.send(&lines);
    let replies: Vec<String> = lines.iter().map(|_| client.recv()).collect();
    let direct = backends[0].addr().to_string();
    for (line, reply) in lines.iter().zip(&replies) {
        assert_eq!(reply, &exchange_at(&direct, line), "reply to {line}");
    }
    router.shutdown();
}

/// Concurrent cold requests reach the backend together — each over its
/// own pooled connection — so they all wait in its queue at once instead
/// of the router serializing them.
#[test]
fn concurrent_cold_requests_batch_at_the_backend() {
    // The backend's workers start only once every request is queued.
    let service = Service::new(backend_config());
    let backend =
        Server::with_service("127.0.0.1:0", std::sync::Arc::clone(&service)).expect("bind backend");
    let mut router = Router::spawn(
        "127.0.0.1:0",
        router_config(vec![backend.addr().to_string()]),
    )
    .expect("router");
    let addr = router.addr().to_string();
    let clients = 8u64;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients as usize));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let (addr, barrier) = (addr.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut c = Client::open(&addr);
                barrier.wait();
                c.exchange(&sim_line("gzip", "baseline", BUDGET + i))
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let depth = service.stats().queue_depth;
        if depth == clients {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {depth} of {clients} requests reached the backend's queue together"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    service.start();
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(replies[0].starts_with("{\"ok\":true"), "{}", replies[0]);
    assert!(
        replies.iter().all(|r| r == &replies[0]),
        "same cell, same bytes"
    );
    let s = backend.service().stats();
    assert_eq!(s.batched_cells, clients, "every request was a cold cell");
    router.shutdown();
}

/// The relay under backend faults: a seeded chaos proxy (resets,
/// truncations, bit flips, black holes, delays) sits between the router
/// and one of its two backends, and retrying clients that check the
/// integrity trailer drive the router. Every request ends in the
/// offline bytes or an honest failure within its retry budget, and none
/// hangs.
#[test]
fn relay_under_backend_faults_is_byte_exact_or_honest() {
    let lines: Vec<String> = ["bzip2", "gzip"]
        .iter()
        .flat_map(|w| (0..4u64).map(move |i| sim_line(w, "baseline", BUDGET + i)))
        .collect();
    let expected: HashMap<String, String> = lines
        .iter()
        .map(|l| (l.clone(), offline_expected(l)))
        .collect();
    let backends = spawn_backends(2);
    // Warm every cell on both backends, so a failover never waits on a
    // debug-build simulation.
    for b in &backends {
        for line in &lines {
            assert_eq!(exchange_at(&b.addr().to_string(), line), expected[line]);
        }
    }
    let chaos = ChaosConfig {
        delay_pct: 10,
        reset_pct: 8,
        truncate_pct: 8,
        bitflip_pct: 8,
        blackhole_pct: 6,
        delay: Duration::from_millis(20),
        ..ChaosConfig::clean(backends[1].addr().to_string(), 0x5EED_FA17)
    };
    // The ring hashes the proxy's ephemeral address: take proxies until
    // the faulty path owns at least half of the keys.
    let proxy = loop {
        let proxy = ChaosProxy::spawn("127.0.0.1:0", chaos.clone()).expect("bind proxy");
        let addrs = vec![backends[0].addr().to_string(), proxy.addr().to_string()];
        if 2 * lines.iter().filter(|l| owner(&addrs, l) == 1).count() >= lines.len() {
            break proxy;
        }
    };
    let counts = proxy.counts();
    let mut router = Router::spawn(
        "127.0.0.1:0",
        router_config(vec![
            backends[0].addr().to_string(),
            proxy.addr().to_string(),
        ]),
    )
    .expect("router");

    // Each client sends at least `MIN_PER_THREAD` requests, and keeps
    // going (up to `MAX_PER_THREAD`) until every operator has fired on
    // the faulty link: the router ejects that backend now and then, and
    // only its health checks cross the link until it is readmitted.
    const THREADS: usize = 4;
    const MIN_PER_THREAD: usize = 50;
    const MAX_PER_THREAD: usize = 2000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = router.addr().to_string();
            let (lines, expected) = (lines.clone(), expected.clone());
            let (counts, chaos) = (Arc::clone(&counts), chaos.clone());
            std::thread::spawn(move || {
                let mut client = RetryClient::new(ClientConfig {
                    max_retries: 16,
                    backoff_base: Duration::from_micros(200),
                    backoff_cap: Duration::from_millis(20),
                    io_timeout: Duration::from_secs(10),
                    require_integrity: true,
                    seed: 0x0BAD_5EED ^ t as u64,
                    ..ClientConfig::new(addr)
                });
                let (mut ok, mut failed, mut wrong) = (0u64, 0u64, 0u64);
                for i in 0..MAX_PER_THREAD {
                    if i >= MIN_PER_THREAD && counts.all_enabled_fired(&chaos) {
                        break;
                    }
                    let line = &lines[(i + t) % lines.len()];
                    match client.request(line) {
                        Outcome::Ok(reply) if reply == expected[line] => ok += 1,
                        Outcome::Ok(reply) => {
                            wrong += 1;
                            eprintln!("WRONG ANSWER for {line}: {reply}");
                        }
                        Outcome::ServerError { kind, message } => {
                            panic!("non-retryable typed error through the relay: {kind}: {message}")
                        }
                        Outcome::Transport { .. } => failed += 1,
                    }
                }
                (ok, failed, wrong, client.stats())
            })
        })
        .collect();
    let (mut ok, mut failed, mut wrong, mut corrupt, mut sent) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for h in handles {
        let (o, f, w, stats) = h.join().expect("client thread");
        ok += o;
        failed += f;
        wrong += w;
        corrupt += stats.corrupt;
        sent += stats.requests;
    }
    assert_eq!(
        wrong, 0,
        "a faulty backend link must never yield a wrong answer"
    );
    assert_eq!(ok + failed, sent, "every request ended");
    assert!(
        failed <= 2,
        "the retry budget absorbs the faults; {failed} gave up"
    );
    assert!(
        counts.all_enabled_fired(&chaos),
        "every operator hit the relay path: {:?}",
        counts.snapshot()
    );
    let (_, _, _, _, bitflip, _) = counts.snapshot();
    assert!(
        corrupt >= bitflip.min(1),
        "relayed bit flips are caught by the trailer, not accepted"
    );
    router.shutdown();
}

/// A fake backend: answers `ping` with a pong, and the n-th other line
/// it reads (counted across its connections) with `answer(link, n)`.
fn scripted_backend(answer: fn(&mut TcpStream, u64)) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let answered = Arc::new(AtomicU64::new(0));
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                conn.set_nodelay(true).unwrap();
                let mut writer = conn.try_clone().unwrap();
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line.contains("ping") {
                        let _ = writer.write_all(b"{\"ok\":true,\"pong\":true}\n");
                    } else {
                        answer(&mut writer, answered.fetch_add(1, Ordering::SeqCst));
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

fn quiet_router(backend: String) -> Router {
    Router::spawn(
        "127.0.0.1:0",
        RouterConfig {
            check_interval: Duration::from_secs(60),
            ..router_config(vec![backend])
        },
    )
    .expect("router")
}

/// The router reads the integrity flag from the request, as serve does:
/// however the member is spaced, a forward no backend answers and a
/// request the router rejects both come back trailered, and a false
/// flag gets no trailer.
#[test]
fn spaced_integrity_flag_trailers_router_local_errors() {
    use polyflow_serve::protocol::check_integrity_trailer;

    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind")
        .to_string();
    let mut router = quiet_router(dead);
    let addr = router.addr().to_string();
    for (line, kind) in [
        ("{\"workload\":\"gzip\",\"integrity\":true}", "overloaded"),
        ("{\"workload\":\"gzip\", \"integrity\": true}", "overloaded"),
        (
            "{\"workload\":\"nope\", \"integrity\": true}",
            "unknown_workload",
        ),
    ] {
        let reply = exchange_at(&addr, line);
        let (body, verified) = check_integrity_trailer(&reply);
        assert_eq!(verified, Some(true), "{line} → {reply}");
        let v = json::parse(body).expect("error reply parses");
        let got = v.get("error").and_then(|e| e.get("kind"));
        assert_eq!(got.and_then(json::Json::as_str), Some(kind), "{reply}");
    }
    let reply = exchange_at(&addr, "{\"workload\":\"gzip\", \"integrity\": false}");
    assert_eq!(check_integrity_trailer(&reply).1, None, "{reply}");
    router.shutdown();
}

/// An upload whose `; window:` pragma is over the served cap is refused
/// by the router itself, typed, and reaches no backend; one at the cap
/// is served as offline renders it.
#[test]
fn upload_window_beyond_the_cap_is_refused_at_the_router() {
    let mut backends = spawn_backends(1);
    let mut router = Router::spawn("127.0.0.1:0", router_config(addrs(&backends))).expect("router");
    let addr = router.addr().to_string();
    let upload = |window: &str| {
        format!(
            "{{\"program\":\"{}\"}}",
            json::escape(&format!("; window: {window}\nfn main {{\n    halt\n}}\n"))
        )
    };
    let reply = exchange_at(&addr, &upload("10_000_000_000"));
    let v = json::parse(&reply).expect("error reply parses");
    let kind = v.get("error").and_then(|e| e.get("kind"));
    assert_eq!(
        kind.and_then(json::Json::as_str),
        Some("bad_request"),
        "{reply}"
    );
    assert!(
        reply.contains("2000000"),
        "the reply names the cap: {reply}"
    );
    assert_eq!(
        backends[0].service().stats().submitted,
        0,
        "no backend saw it"
    );

    let at_cap = upload("2_000_000");
    assert_eq!(exchange_at(&addr, &at_cap), offline_expected(&at_cap));
    router.shutdown();
    for b in &mut backends {
        b.shutdown();
    }
}

/// A backend that writes its reply one byte at a time: the router
/// relays the reply whole, however many reads it takes.
#[test]
fn reply_written_a_byte_at_a_time_is_relayed_whole() {
    fn trickle(link: &mut TcpStream, n: u64) {
        let reply = format!(
            "{{\"ok\":true,\"n\":{n},\"pad\":\"{}\"}}\n",
            "x".repeat(100)
        );
        for byte in reply.as_bytes() {
            if link.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let mut router = quiet_router(scripted_backend(trickle));
    let mut client = Client::open(&router.addr().to_string());
    for n in 0..3 {
        assert_eq!(
            client.exchange(&verify_line("gzip")),
            format!("{{\"ok\":true,\"n\":{n},\"pad\":\"{}\"}}", "x".repeat(100))
        );
    }
    router.shutdown();
}

/// A backend that sends bytes after its newline: only the first line is
/// relayed, and the link is dropped rather than pooled, so the next
/// request dials a new one.
#[test]
fn bytes_after_the_newline_are_dropped_with_their_link() {
    fn chatty(link: &mut TcpStream, n: u64) {
        let _ =
            link.write_all(format!("{{\"ok\":true,\"n\":{n}}}\n{{\"stray\":{n}}}\n").as_bytes());
    }
    let mut router = quiet_router(scripted_backend(chatty));
    let addr = router.addr().to_string();
    let connects = || {
        let stats = router_stats(&addr);
        let pool = stats.get("router").and_then(|r| r.get("pool")).cloned();
        pool.and_then(|p| p.get("connects").and_then(json::Json::as_u64))
            .expect("pool.connects")
    };
    let before = connects();
    let mut client = Client::open(&addr);
    let requests = 3;
    let mut last = None;
    for _ in 0..requests {
        let reply = client.exchange(&verify_line("gzip"));
        let n: u64 = reply
            .strip_prefix("{\"ok\":true,\"n\":")
            .and_then(|r| r.strip_suffix('}'))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("only the first line is relayed: {reply:?}"));
        assert!(last < Some(n), "a fresh answer each time");
        last = Some(n);
    }
    assert!(
        connects() - before >= requests,
        "every request after a stray byte dials a new link"
    );
    router.shutdown();
}
