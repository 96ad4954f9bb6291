//! Cycle-accounting integration tests: the sum invariant, the
//! counter-vs-bucket cross-checks (the regression net for the stall
//! counter attribution fixes), sink transparency, and event-stream
//! contents.

use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};
use polyflow_sim::{
    simulate, timeline, Bucket, JsonlSink, MachineConfig, NoSpawn, NullSink, PreparedTrace,
    SimEvent, SimOptions, SimResult, SimScratch, SpawnSource, StaticSpawnSource, TraceSink,
};

/// A sink that keeps every event it is handed, in order.
#[derive(Default)]
struct Collect(Vec<SimEvent>);

impl TraceSink for Collect {
    fn event(&mut self, ev: &SimEvent) {
        self.0.push(*ev);
    }
}

/// One [`simulate`] run on a fresh scratch, with no event sink and the
/// default options.
fn sim<S: SpawnSource + ?Sized>(
    prepared: &PreparedTrace,
    cfg: &MachineConfig,
    source: &mut S,
) -> SimResult {
    let mut scratch = SimScratch::default();
    simulate(
        prepared,
        cfg,
        source,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
    .0
}

/// One [`simulate`] run that streams its events to `sink`.
fn sim_traced<S: SpawnSource + ?Sized>(
    prepared: &PreparedTrace,
    cfg: &MachineConfig,
    source: &mut S,
    scratch: &mut SimScratch,
    sink: &mut dyn TraceSink,
) -> SimResult {
    simulate(prepared, cfg, source, scratch, sink, SimOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// A hammock-rich loop with data dependences: exercises spawns,
/// mispredictions, diverts, and (under store-set/hint configs) squashes.
fn hammock_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let top = b.fresh_label("top");
    let skip = b.fresh_label("skip");
    b.li(Reg::R1, 0);
    b.li(Reg::R10, 99991);
    b.bind_label(top);
    b.li(Reg::R11, 2654435761);
    b.alu(AluOp::Mul, Reg::R10, Reg::R10, Reg::R11);
    b.alui(AluOp::Srl, Reg::R12, Reg::R10, 13);
    b.alui(AluOp::And, Reg::R12, Reg::R12, 1);
    b.br_imm(Cond::Eq, Reg::R12, 0, skip);
    b.alui(AluOp::Add, Reg::R3, Reg::R3, 7);
    b.bind_label(skip);
    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    b.br_imm(Cond::Lt, Reg::R1, 400, top);
    b.halt();
    b.end_function();
    b.build().unwrap()
}

/// A loop with stores and loads so store-set mode has memory dependences
/// to speculate (and violate) on.
fn memory_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let top = b.fresh_label("top");
    b.li(Reg::R1, 0);
    b.li(Reg::R5, 4096);
    b.bind_label(top);
    b.alui(AluOp::And, Reg::R6, Reg::R1, 31);
    b.alui(AluOp::Sll, Reg::R6, Reg::R6, 3);
    b.alu(AluOp::Add, Reg::R6, Reg::R5, Reg::R6);
    b.store(Reg::R1, Reg::R6, 0);
    b.load(Reg::R7, Reg::R6, 0);
    b.alu(AluOp::Add, Reg::R3, Reg::R3, Reg::R7);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    b.br_imm(Cond::Lt, Reg::R1, 300, top);
    b.halt();
    b.end_function();
    b.build().unwrap()
}

fn run(program: &Program, config: &MachineConfig, policy: Policy) -> SimResult {
    let trace = execute_window(program, 200_000).unwrap().trace;
    let prepared = PreparedTrace::new(&trace, config);
    if policy == Policy::None {
        sim(&prepared, config, &mut NoSpawn)
    } else {
        let analysis = ProgramAnalysis::analyze(program);
        let mut source = StaticSpawnSource::new(analysis.spawn_table(policy));
        sim(&prepared, config, &mut source)
    }
}

/// Asserts the ledger balances and each stall counter equals its bucket
/// exactly — the counters and the accountant observe the same per-cycle
/// classification, so any drift means one of them double- or
/// under-counts.
fn assert_consistent(r: &SimResult, config: &MachineConfig) {
    r.account.check().unwrap();
    assert_eq!(r.account.cycles, r.cycles, "account covers every cycle");
    assert_eq!(r.account.contexts, config.contexts());
    assert_eq!(
        r.account.total_slots(),
        r.cycles * config.contexts(),
        "sum(buckets) == cycles × contexts"
    );
    assert_eq!(
        r.fetch_stall_branch_cycles,
        r.account.bucket(Bucket::BranchStall),
        "branch-stall counter vs bucket"
    );
    assert_eq!(
        r.fetch_stall_icache_cycles,
        r.account.bucket(Bucket::IcacheStall),
        "icache-stall counter vs bucket (would fail if squash recovery \
         or spawn setup were still lumped in)"
    );
    assert_eq!(
        r.squash_recovery_cycles,
        r.account.bucket(Bucket::SquashRecovery),
        "squash-recovery counter vs bucket"
    );
    assert_eq!(
        r.spawn_setup_cycles,
        r.account.bucket(Bucket::SpawnSetup),
        "spawn-setup counter vs bucket"
    );
    // One task account per dynamic task: the initial task plus one per
    // spawn.
    assert_eq!(r.account.tasks.len() as u64, 1 + r.total_spawns());
}

#[test]
fn invariant_and_counters_oracle_config() {
    let p = hammock_program();
    let r = run(&p, &MachineConfig::hpca07(), Policy::Postdoms);
    assert!(r.total_spawns() > 0, "workload must exercise spawning");
    assert_consistent(&r, &MachineConfig::hpca07());
    // The postdoms run overlapped fetch stalls, so some branch-stall
    // slots must be on the books.
    assert!(r.account.bucket(Bucket::BranchStall) > 0);
    assert!(r.account.bucket(Bucket::SpawnSetup) > 0);
}

#[test]
fn invariant_and_counters_superscalar_baseline() {
    let p = hammock_program();
    let cfg = MachineConfig::superscalar();
    let r = run(&p, &cfg, Policy::None);
    assert_consistent(&r, &cfg);
    assert_eq!(r.account.contexts, 1);
    assert_eq!(r.account.tasks.len(), 1, "no spawns on the baseline");
    assert_eq!(r.account.bucket(Bucket::IdleContext), 0);
    assert_eq!(r.account.bucket(Bucket::SpawnSetup), 0);
    assert_eq!(r.account.bucket(Bucket::SquashRecovery), 0);
}

#[test]
fn invariant_and_counters_store_set_squashes() {
    let p = memory_program();
    let cfg = MachineConfig {
        memory_dependence: polyflow_sim::DependenceMode::StoreSet,
        ..MachineConfig::hpca07()
    };
    let r = run(&p, &cfg, Policy::Postdoms);
    assert_consistent(&r, &cfg);
    if r.squashes > 0 {
        assert!(
            r.squash_recovery_cycles > 0,
            "squashes must charge recovery cycles"
        );
    }
}

#[test]
fn invariant_and_counters_hint_register_model() {
    let p = hammock_program();
    let cfg = MachineConfig {
        register_dependence: polyflow_sim::DependenceMode::StoreSet,
        ..MachineConfig::hpca07()
    };
    let r = run(&p, &cfg, Policy::Postdoms);
    assert_consistent(&r, &cfg);
}

#[test]
fn invariant_and_counters_rob_reclamation() {
    let p = memory_program();
    let cfg = MachineConfig {
        rob_entries: 64,
        rob_reclamation: true,
        rob_reclaim_after: 16,
        ..MachineConfig::hpca07()
    };
    let r = run(&p, &cfg, Policy::Postdoms);
    assert_consistent(&r, &cfg);
}

#[test]
fn results_are_bit_identical_across_sinks() {
    let p = hammock_program();
    let cfg = MachineConfig::hpca07();
    let trace = execute_window(&p, 200_000).unwrap().trace;
    let prepared = PreparedTrace::new(&trace, &cfg);
    let analysis = ProgramAnalysis::analyze(&p);
    let table = analysis.spawn_table(Policy::Postdoms);

    let mut scratch = SimScratch::default();
    let mut source = StaticSpawnSource::new(table.clone());
    let with_null = sim_traced(&prepared, &cfg, &mut source, &mut scratch, &mut NullSink);

    let mut collected = Collect::default();
    let mut source = StaticSpawnSource::new(table.clone());
    let with_collect = sim_traced(&prepared, &cfg, &mut source, &mut scratch, &mut collected);

    let mut jsonl = JsonlSink::new(Vec::new());
    let mut source = StaticSpawnSource::new(table);
    let with_jsonl = sim_traced(&prepared, &cfg, &mut source, &mut scratch, &mut jsonl);

    // Event emission must never feed back into the simulation.
    assert_eq!(with_null, with_collect);
    assert_eq!(with_null, with_jsonl);
    assert!(!collected.0.is_empty());
    assert!(jsonl.written() > 0);
}

/// Cycle skipping must be invisible to observers: the JSONL event stream
/// it emits is byte-for-byte the stream of the stepped run, on a workload
/// that actually fast-forwards.
#[test]
fn skipped_cycle_fast_path_emits_identical_events() {
    let p = memory_program();
    let cfg = MachineConfig {
        memory_dependence: polyflow_sim::DependenceMode::StoreSet,
        profitability_feedback: false,
        ..MachineConfig::hpca07()
    };
    let trace = execute_window(&p, 200_000).unwrap().trace;
    let prepared = PreparedTrace::new(&trace, &cfg);
    let analysis = ProgramAnalysis::analyze(&p);
    let table = analysis.spawn_table(Policy::Loop);

    let run = |skip: bool| {
        let mut scratch = SimScratch::default();
        let mut source = StaticSpawnSource::new(table.clone());
        let mut sink = JsonlSink::new(Vec::new());
        let (result, telemetry) = simulate(
            &prepared,
            &cfg,
            &mut source,
            &mut scratch,
            &mut sink,
            SimOptions {
                cycle_skip: skip,
                ..SimOptions::default()
            },
        )
        .unwrap();
        (result, telemetry, sink.into_inner())
    };
    let (on, t_on, bytes_on) = run(true);
    let (off, t_off, bytes_off) = run(false);
    assert!(
        t_on.skipped_cycles > 0,
        "workload never fast-forwarded — parity test is vacuous"
    );
    assert_eq!(t_off.skipped_cycles, 0);
    assert_eq!(on, off, "cycle skipping changed the result");
    assert!(!bytes_on.is_empty());
    assert_eq!(
        bytes_on, bytes_off,
        "cycle skipping changed the emitted event stream"
    );
}

#[test]
fn event_stream_matches_counters() {
    let p = hammock_program();
    let cfg = MachineConfig::hpca07();
    let trace = execute_window(&p, 200_000).unwrap().trace;
    let prepared = PreparedTrace::new(&trace, &cfg);
    let analysis = ProgramAnalysis::analyze(&p);
    let mut source = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
    let mut scratch = SimScratch::default();
    let mut events = Collect::default();
    let r = sim_traced(&prepared, &cfg, &mut source, &mut scratch, &mut events);

    let mut spawns = 0u64;
    let mut squashes = 0u64;
    let mut reclaims = 0u64;
    let mut retired = 0u64;
    let mut last_cycle = 0u64;
    for ev in &events.0 {
        assert!(ev.cycle() >= last_cycle, "events ordered by cycle");
        last_cycle = ev.cycle();
        match *ev {
            SimEvent::Spawn {
                task, target_index, ..
            } => {
                let acct = &r.account.tasks[task as usize];
                assert_eq!(acct.start_index, target_index);
                spawns += 1;
            }
            SimEvent::Squash { reclaim, .. } => {
                if reclaim {
                    reclaims += 1;
                } else {
                    squashes += 1;
                }
            }
            SimEvent::RetireBatch { count, .. } => retired += count as u64,
            _ => {}
        }
    }
    assert_eq!(spawns, r.total_spawns());
    assert_eq!(squashes, r.squashes);
    assert_eq!(reclaims, r.rob_reclaims);
    assert_eq!(retired, r.instructions, "every instruction retires once");

    // Spawn events mirror the spawn log one-for-one.
    let spawn_events: Vec<_> = events
        .0
        .iter()
        .filter_map(|ev| match *ev {
            SimEvent::Spawn {
                cycle,
                target_index,
                ..
            } => Some((cycle, target_index)),
            _ => None,
        })
        .collect();
    let log: Vec<_> = r
        .spawn_log
        .iter()
        .map(|s| (s.cycle, s.target_index))
        .collect();
    assert_eq!(spawn_events, log);
}

#[test]
fn stall_episodes_are_balanced_and_typed() {
    let p = hammock_program();
    let cfg = MachineConfig::hpca07();
    let trace = execute_window(&p, 200_000).unwrap().trace;
    let prepared = PreparedTrace::new(&trace, &cfg);
    let analysis = ProgramAnalysis::analyze(&p);
    let mut source = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
    let mut scratch = SimScratch::default();
    let mut events = Collect::default();
    let r = sim_traced(&prepared, &cfg, &mut source, &mut scratch, &mut events);

    // Per task, StallBegin/StallEnd must alternate begin-first, and every
    // episode's bucket must be a stall bucket with charged slots.
    let mut open: std::collections::HashMap<u32, Bucket> = std::collections::HashMap::new();
    let mut begins = 0u64;
    for ev in &events.0 {
        match *ev {
            SimEvent::StallBegin { task, bucket, .. } => {
                assert!(bucket.is_stall());
                assert!(
                    open.insert(task, bucket).is_none(),
                    "task {task} began a stall inside a stall"
                );
                begins += 1;
            }
            SimEvent::StallEnd { task, bucket, .. } => {
                assert_eq!(
                    open.remove(&task),
                    Some(bucket),
                    "task {task} ended a stall it never began"
                );
            }
            _ => {}
        }
    }
    assert!(begins > 0, "a postdoms run must have stall episodes");
    // Any still-open episodes simply ran to the end of the simulation.
    for (task, bucket) in open {
        assert!(r.account.tasks[task as usize].buckets[bucket.index()] > 0);
    }
}

#[test]
fn spawn_log_cycles_nondecreasing_and_summary_renders() {
    let p = hammock_program();
    let r = run(&p, &MachineConfig::hpca07(), Policy::Postdoms);
    assert!(!r.spawn_log.is_empty());
    assert!(
        r.spawn_log.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "spawn log must be nondecreasing in cycle"
    );
    // Spawn cycles recorded in the account agree with the log.
    for (s, t) in r.spawn_log.iter().zip(r.account.tasks.iter().skip(1)) {
        assert_eq!(s.cycle, t.spawn_cycle);
        assert_eq!(s.target_index, t.start_index);
        assert_eq!(Some(s.kind), t.kind);
        assert_eq!(Some(s.trigger), t.created_by);
    }
    let s = timeline::summary(&r);
    assert!(s.contains(&format!("{} spawns", r.total_spawns())));
    assert!(s.contains("first spawn at cycle"));
    assert!(s.contains(&format!("(of {})", r.cycles)));
}

#[test]
fn sim_result_json_is_well_formed_and_balanced() {
    let p = hammock_program();
    let cfg = MachineConfig::hpca07();
    let r = run(&p, &cfg, Policy::Postdoms);
    let json = r.to_json();
    // Structurally balanced (no serde available to parse, so check the
    // shape by hand; CI additionally runs `jq` over the explain output).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains(&format!("\"cycles\": {}", r.cycles)));
    assert!(json.contains(&format!("\"contexts\": {}", cfg.contexts())));
    for b in Bucket::ALL {
        assert!(json.contains(&format!("\"{}\":", b.label())), "{b}");
    }
    assert!(json.contains("\"squash_recovery_cycles\""));
    assert!(json.contains("\"spawn_setup_cycles\""));
    // One task object per dynamic task.
    assert_eq!(
        json.matches("\"uid\":").count() as u64,
        1 + r.total_spawns()
    );
}

#[test]
fn empty_trace_yields_balanced_default_account() {
    let r = SimResult::default();
    r.account.check().unwrap();
    assert_eq!(r.account.total_slots(), 0);
}
