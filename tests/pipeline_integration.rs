//! Cross-crate integration: program construction → execution → analysis →
//! simulation, end to end.

use polyflow::core::{Policy, ProgramAnalysis, SpawnKind};
use polyflow::isa::{execute_window, AluOp, Cond, ProgramBuilder, Reg};
use polyflow::sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimResult, SimScratch,
    SpawnSource, StaticSpawnSource,
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

/// Build → run → analyze → simulate a small program under every policy.
#[test]
fn full_stack_on_synthetic_program() {
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let top = b.fresh_label("top");
    let skip = b.fresh_label("skip");
    b.li(Reg::R1, 0);
    b.bind_label(top);
    b.alui(AluOp::And, Reg::R2, Reg::R1, 3);
    b.br_imm(Cond::Ne, Reg::R2, 0, skip);
    b.call("helper");
    b.bind_label(skip);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    b.br_imm(Cond::Lt, Reg::R1, 200, top);
    b.halt();
    b.end_function();
    b.begin_function("helper");
    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
    b.ret();
    b.end_function();
    let program = b.build().expect("valid program");

    let exec = execute_window(&program, 100_000).expect("executes");
    assert!(exec.halted);

    let analysis = ProgramAnalysis::analyze(&program);
    assert!(!analysis.candidates().is_empty());

    let ss = MachineConfig::superscalar();
    let prepared = PreparedTrace::new(&exec.trace, &ss);
    let base = sim(&prepared, &ss, &mut NoSpawn);
    assert_eq!(base.instructions as usize, exec.trace.len());

    let pf = MachineConfig::hpca07();
    let prepared = PreparedTrace::new(&exec.trace, &pf);
    for policy in Policy::figure9() {
        let mut src = StaticSpawnSource::new(analysis.spawn_table(policy));
        let r = sim(&prepared, &pf, &mut src);
        assert_eq!(r.instructions, base.instructions, "{policy}: same work");
        assert!(r.ipc() <= pf.width as f64, "{policy}: IPC bounded by width");
        assert!(r.max_live_tasks <= pf.max_tasks, "{policy}: task bound");
    }
}

/// Every workload's spawn analysis produces a sane static distribution.
#[test]
fn every_workload_has_postdominator_spawns() {
    for w in polyflow::workloads::all() {
        let analysis = ProgramAnalysis::analyze(&w.program);
        let d = analysis.static_distribution();
        assert!(
            d.total_postdom() >= 2,
            "{}: needs at least two postdominator spawn candidates",
            w.name
        );
        // Spawn targets always lie within the program.
        for sp in analysis.candidates() {
            assert!(sp.target.index() < w.program.len(), "{}: {sp}", w.name);
            assert!(sp.trigger.index() < w.program.len(), "{}: {sp}", w.name);
        }
    }
}

/// The superscalar is deterministic: same trace, same cycles.
#[test]
fn simulation_is_deterministic() {
    let w = polyflow::workloads::by_name("gzip").unwrap();
    let trace = execute_window(&w.program, 60_000).unwrap().trace;
    let cfg = MachineConfig::superscalar();
    let prepared = PreparedTrace::new(&trace, &cfg);
    let a = sim(&prepared, &cfg, &mut NoSpawn);
    let b = sim(&prepared, &cfg, &mut NoSpawn);
    assert_eq!(a, b);
}

/// PolyFlow with spawning disabled equals the superscalar configured with
/// the PolyFlow front end minus the extra task: the paper's
/// equivalent-resources premise (§3.2).
#[test]
fn no_spawn_polyflow_never_loses_to_superscalar() {
    let w = polyflow::workloads::by_name("parser").unwrap();
    let trace = execute_window(&w.program, 80_000).unwrap().trace;
    let ss = MachineConfig::superscalar();
    let pf = MachineConfig::hpca07();
    let prep_ss = PreparedTrace::new(&trace, &ss);
    let prep_pf = PreparedTrace::new(&trace, &pf);
    let a = sim(&prep_ss, &ss, &mut NoSpawn);
    let b = sim(&prep_pf, &pf, &mut NoSpawn);
    // With a single task the extra fetch port is never used.
    assert_eq!(a.cycles, b.cycles);
}

/// The classification of Figure 5 is exhaustive: every candidate is one
/// of the five kinds, and the hint-cache lookup can find each trigger.
#[test]
fn classification_is_exhaustive_and_indexed() {
    let w = polyflow::workloads::by_name("gcc").unwrap();
    let analysis = ProgramAnalysis::analyze(&w.program);
    let table = analysis.spawn_table(Policy::Postdoms);
    for sp in table.points() {
        assert!(sp.kind.is_postdom());
        assert!(
            table.lookup(sp.trigger).any(|s| s.target == sp.target),
            "trigger {} must be indexed",
            sp.trigger
        );
    }
    // Exclusion policies partition the postdominator set.
    let full = table.len();
    for kind in SpawnKind::POSTDOM_KINDS {
        let without = analysis.spawn_table(Policy::PostdomsWithout(kind)).len();
        let only = analysis
            .candidates()
            .iter()
            .filter(|s| s.kind == kind)
            .count();
        assert_eq!(
            without + only,
            full,
            "excluding {kind} must remove exactly its kind"
        );
    }
}
