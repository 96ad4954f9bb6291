//! Randomized tests: the cycle model must uphold its invariants on
//! arbitrary (bounded, terminating) structured programs under every
//! policy and dependence mode — no deadlocks, full retirement, bounded
//! IPC and task counts, and a coherent spawn log.
//!
//! Programs are generated from a fixed-seed [`SplitMix64`] stream so
//! every run exercises the same cases and failures reproduce exactly.

use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::rng::SplitMix64;
use polyflow_isa::{execute_window, AluOp, Cond, Program, ProgramBuilder, Reg};
use polyflow_sim::{
    simulate, DependenceMode, MachineConfig, NoSpawn, NullSink, PreparedTrace, ReconvSpawnSource,
    SimOptions, SimResult, SimScratch, SpawnSource, StaticSpawnSource,
};

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

/// One structured statement of the generated program.
#[derive(Debug, Clone)]
enum Stmt {
    /// `n` ALU instructions (serial on one register).
    Work(u8),
    /// An if-then-else on a data bit, with arm lengths.
    Hammock(u8, u8),
    /// A bounded counted loop around inner work.
    Loop(u8, u8),
    /// A call to the shared leaf function.
    Call,
    /// A load/store pair on a shared location (memory dependence).
    Shared,
}

fn random_stmt(rng: &mut SplitMix64) -> Stmt {
    match rng.below(5) {
        0 => Stmt::Work(1 + rng.below(7) as u8),
        1 => Stmt::Hammock(1 + rng.below(5) as u8, 1 + rng.below(5) as u8),
        2 => Stmt::Loop(1 + rng.below(4) as u8, 1 + rng.below(4) as u8),
        3 => Stmt::Call,
        _ => Stmt::Shared,
    }
}

fn random_stmts(rng: &mut SplitMix64, max_len: usize) -> Vec<Stmt> {
    let len = 1 + rng.index(max_len - 1);
    (0..len).map(|_| random_stmt(rng)).collect()
}

/// Emits the statement list inside a bounded outer loop so spawning has
/// repetition to work with.
fn build_program(stmts: &[Stmt], outer_iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_data(&[0xABCD_1234_5678_9EFF]);
    let shared = b.alloc_data(&[1]);
    b.begin_function("main");
    let top = b.fresh_label("outer");
    b.li(Reg::R9, 0);
    b.li(Reg::R20, data as i64);
    b.li(Reg::R21, shared as i64);
    b.bind_label(top);
    b.load(Reg::R11, Reg::R20, 0);
    // Vary the branch material per iteration.
    b.alu(AluOp::Xor, Reg::R11, Reg::R11, Reg::R9);
    for (si, s) in stmts.iter().enumerate() {
        match *s {
            Stmt::Work(n) => {
                for _ in 0..n {
                    b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
                }
            }
            Stmt::Hammock(t, e) => {
                let els = b.fresh_label("els");
                let join = b.fresh_label("join");
                b.alui(AluOp::Srl, Reg::R13, Reg::R11, (si % 48) as i64);
                b.alui(AluOp::And, Reg::R13, Reg::R13, 1);
                b.br_imm(Cond::Eq, Reg::R13, 0, els);
                for _ in 0..t {
                    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
                }
                b.jmp(join);
                b.bind_label(els);
                for _ in 0..e {
                    b.alui(AluOp::Add, Reg::R4, Reg::R4, 1);
                }
                b.bind_label(join);
            }
            Stmt::Loop(iters, body) => {
                let ltop = b.fresh_label("ltop");
                b.li(Reg::R5, 0);
                b.bind_label(ltop);
                for _ in 0..body {
                    b.alui(AluOp::Add, Reg::R6, Reg::R6, 1);
                }
                b.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
                b.br_imm(Cond::Lt, Reg::R5, iters as i64, ltop);
            }
            Stmt::Call => {
                b.alui(AluOp::Add, Reg::SP, Reg::SP, -8);
                b.store(Reg::RA, Reg::SP, 0);
                b.call("leaf");
                b.load(Reg::RA, Reg::SP, 0);
                b.alui(AluOp::Add, Reg::SP, Reg::SP, 8);
            }
            Stmt::Shared => {
                b.load(Reg::R7, Reg::R21, 0);
                b.alui(AluOp::Mul, Reg::R7, Reg::R7, 3);
                b.store(Reg::R7, Reg::R21, 0);
            }
        }
    }
    b.alui(AluOp::Add, Reg::R9, Reg::R9, 1);
    b.br_imm(Cond::Lt, Reg::R9, outer_iters, top);
    b.halt();
    b.end_function();
    b.begin_function("leaf");
    b.alui(AluOp::Add, Reg::R26, Reg::R26, 1);
    b.alui(AluOp::Mul, Reg::R26, Reg::R26, 5);
    b.ret();
    b.end_function();
    b.build().expect("generated program is valid")
}

#[test]
fn machine_invariants_hold_for_all_policies() {
    let mut rng = SplitMix64::new(0x51f7);
    for case in 0..48 {
        let stmts = random_stmts(&mut rng, 8);
        let outer = rng.range_i64(5, 40);
        let program = build_program(&stmts, outer);
        let exec = execute_window(&program, 200_000).expect("executes");
        assert!(exec.halted, "case {case}: bounded program must halt");
        let analysis = ProgramAnalysis::analyze(&program);

        let ss = MachineConfig::superscalar();
        let prep = PreparedTrace::new(&exec.trace, &ss);
        let base = sim(&prep, &ss, &mut NoSpawn);
        assert_eq!(base.instructions as usize, exec.trace.len(), "case {case}");
        assert!(base.ipc() <= ss.width as f64, "case {case}");

        let pf = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&exec.trace, &pf);
        for policy in [
            Policy::Loop,
            Policy::Hammock,
            Policy::ProcFt,
            Policy::Postdoms,
        ] {
            let mut src = StaticSpawnSource::new(analysis.spawn_table(policy));
            let r = sim(&prep, &pf, &mut src);
            assert_eq!(r.instructions, base.instructions, "case {case}");
            assert!(
                r.ipc() <= pf.width as f64,
                "case {case}: {}: IPC {}",
                policy,
                r.ipc()
            );
            assert!(r.max_live_tasks <= pf.max_tasks, "case {case}");
            assert_eq!(r.total_spawns(), r.spawn_log.len() as u64, "case {case}");
            // The spawn log is temporally and spatially coherent.
            for w in r.spawn_log.windows(2) {
                assert!(w[0].cycle <= w[1].cycle, "case {case}");
                assert!(
                    w[0].target_index < w[1].target_index,
                    "case {case}: tail-task spawning splits strictly forward"
                );
            }
            assert_eq!(r.squashes, 0, "case {case}: oracle mode never squashes");
        }
    }
}

#[test]
fn store_set_mode_retires_everything() {
    let mut rng = SplitMix64::new(0x570e);
    for case in 0..24 {
        let stmts = random_stmts(&mut rng, 8);
        let outer = rng.range_i64(5, 30);
        let program = build_program(&stmts, outer);
        let exec = execute_window(&program, 200_000).expect("executes");
        let analysis = ProgramAnalysis::analyze(&program);
        let cfg = MachineConfig {
            memory_dependence: DependenceMode::StoreSet,
            ..MachineConfig::hpca07()
        };
        let prep = PreparedTrace::new(&exec.trace, &cfg);
        let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
        let r = sim(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, exec.trace.len(), "case {case}");
        assert!(r.ipc() <= cfg.width as f64, "case {case}");
    }
}

#[test]
fn reconvergence_source_upholds_invariants() {
    let mut rng = SplitMix64::new(0x2ec0);
    for case in 0..24 {
        let stmts = random_stmts(&mut rng, 6);
        let outer = rng.range_i64(5, 25);
        let program = build_program(&stmts, outer);
        let exec = execute_window(&program, 200_000).expect("executes");
        let cfg = MachineConfig::hpca07();
        let prep = PreparedTrace::new(&exec.trace, &cfg);
        let mut src = ReconvSpawnSource::new(polyflow_reconv::ReconvConfig::default());
        let r = sim(&prep, &cfg, &mut src);
        assert_eq!(r.instructions as usize, exec.trace.len(), "case {case}");
        assert!(r.max_live_tasks <= cfg.max_tasks, "case {case}");
    }
}
