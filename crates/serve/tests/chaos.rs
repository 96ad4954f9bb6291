//! The chaos invariant, end to end: a seeded schedule of all five fault
//! operators between real clients and a real in-process server must
//! never produce a wrong answer or a hang — every request ends in a
//! byte-correct success or an honestly-reported failure within its
//! retry budget, and the server's ledger stays consistent throughout.

use polyflow_serve::chaos::{ChaosConfig, ChaosProxy};
use polyflow_serve::client::{Client, ClientConfig, Outcome};
use polyflow_serve::{json, Server, ServiceConfig};
use std::collections::HashMap;
use std::time::Duration;

const BUDGET: u64 = 1_000_000_000;

fn sim_line(workload: &str, policy: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
         \"config\":{{\"max_cycles\":{BUDGET}}}}}"
    )
}

/// Offline ground truth for one request line — the same entry point and
/// rendering the server uses.
fn offline_expected(line: &str) -> String {
    use polyflow_serve::protocol::{ok_response, parse_request, Request};
    let req = match parse_request(line, BUDGET).expect("valid request") {
        Request::Simulate(r) => *r,
        _ => panic!("not a simulate request"),
    };
    let name = req.workload_label().to_string();
    let workload = polyflow_workloads::by_name(&name).expect("bundled workload");
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
        &name,
        &req.policy_label(),
        &json::compact(&result.to_json()),
    )
}

/// ≥200 requests through a chaos schedule exercising all five operators:
/// zero wrong answers, zero hangs, all operators observed, and the
/// outcome of every request is either byte-correct success or an honest
/// transport failure after the budget.
#[test]
fn chaos_schedule_yields_no_wrong_answers_and_no_hangs() {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            jobs: 2,
            default_max_cycles: BUDGET,
            ..ServiceConfig::default()
        },
    )
    .expect("bind server");
    let chaos_config = ChaosConfig {
        delay_pct: 10,
        reset_pct: 8,
        truncate_pct: 8,
        bitflip_pct: 8,
        blackhole_pct: 4,
        delay: Duration::from_millis(20),
        ..ChaosConfig::clean(server.addr().to_string(), 0xC4A0_5EED)
    };
    let check_config = chaos_config.clone();
    let mut proxy = ChaosProxy::spawn("127.0.0.1:0", chaos_config).expect("bind proxy");

    // The request roster: every thread walks the same six cells, so the
    // cross-thread consistency check has teeth.
    let roster: Vec<String> = ["bzip2", "gzip"]
        .iter()
        .flat_map(|w| {
            ["baseline", "postdoms", "loop"]
                .iter()
                .map(|p| sim_line(w, p))
                .collect::<Vec<_>>()
        })
        .collect();
    let expected: HashMap<String, String> = roster
        .iter()
        .map(|l| (l.clone(), offline_expected(l)))
        .collect();

    // Pre-warm every cell through a direct, fault-free connection so
    // the storm below exercises the transport, not debug-build
    // simulation time racing the client's io timeout.
    {
        let mut warm = Client::new(ClientConfig {
            io_timeout: Duration::from_secs(300),
            ..ClientConfig::new(server.addr().to_string())
        });
        for line in &roster {
            let reply = warm.request(line);
            assert_eq!(reply.ok(), Some(expected[line].as_str()), "warm-up");
        }
    }

    const THREADS: usize = 4;
    const PER_THREAD: usize = 50; // 4 × 50 = 200 requests
    let proxy_addr = proxy.addr().to_string();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = proxy_addr.clone();
        let roster = roster.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::new(ClientConfig {
                max_retries: 16,
                backoff_base: Duration::from_micros(200),
                backoff_cap: Duration::from_millis(20),
                io_timeout: Duration::from_secs(1),
                require_integrity: true,
                seed: 0x0BAD_5EED ^ t as u64,
                ..ClientConfig::new(addr)
            });
            let (mut ok, mut transport, mut wrong) = (0u64, 0u64, 0u64);
            for i in 0..PER_THREAD {
                let line = &roster[(i + t) % roster.len()];
                match client.request(line) {
                    Outcome::Ok(reply) => {
                        ok += 1;
                        if reply != expected[line] {
                            wrong += 1;
                            eprintln!("[chaos-test] WRONG ANSWER for {line}: {reply}");
                        }
                    }
                    Outcome::ServerError { kind, message } => {
                        panic!("unexpected typed error under chaos: {kind}: {message}")
                    }
                    Outcome::Transport { .. } => transport += 1,
                }
            }
            (ok, transport, wrong, client.stats())
        }));
    }

    let (mut ok, mut transport, mut wrong) = (0u64, 0u64, 0u64);
    let (mut retries, mut corrupt) = (0u64, 0u64);
    for h in handles {
        let (o, t, w, s) = h.join().expect("chaos client thread");
        ok += o;
        transport += t;
        wrong += w;
        retries += s.retries;
        corrupt += s.corrupt;
    }

    assert_eq!(wrong, 0, "a chaos schedule must never yield a wrong answer");
    assert_eq!(
        ok + transport,
        (THREADS * PER_THREAD) as u64,
        "every request ended — no hangs"
    );
    assert!(
        transport <= 2,
        "retry budget (16) should absorb nearly all faults; {transport} gave up"
    );
    assert!(retries > 0, "the schedule actually injected faults");

    let counts = proxy.counts();
    assert!(
        counts.all_enabled_fired(&check_config),
        "all five operators must fire: {:?}",
        counts.snapshot()
    );
    let (_, _, _, _, bitflip, _) = counts.snapshot();
    assert!(
        corrupt >= bitflip.min(1),
        "bit flips are caught by the integrity check, not accepted"
    );

    proxy.shutdown();
    server.shutdown();
    let stats = server.service().stats();
    assert_eq!(stats.queue_depth, 0, "ledger consistent after the storm");
    assert!(stats.completed >= ok, "server completions cover client oks");
}
