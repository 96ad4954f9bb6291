//! Differential tests: the worklist `solve` must be bit-identical to the
//! round-robin reference iteration (`oracle::round_robin_solve`) on
//! solver edge cases and on the fuzzed CFG distribution (DESIGN.md §12).
//!
//! Program-level cases build real PolyFlow programs and pose exactly the
//! problems the shipped analyses solve (per-function liveness and
//! reaching definitions, supergraph liveness both directions);
//! distribution cases sweep the shape-controlled generator.

use polyflow_cfg::Cfg;
use polyflow_dataflow::oracle::{
    check_against_oracle, component_of, function_liveness_problem, function_reaching_problem,
    random_problem, CfgShape, OwnedProblem,
};
use polyflow_dataflow::{BitSet, Direction, EntryDefs, SuperGraph};
use polyflow_isa::{AluOp, Cond, Program, ProgramBuilder, Reg};

/// Checks every analysis problem the repo derives from `program`:
/// per-function liveness (backward) and reaching defs (forward, both
/// entry policies), plus supergraph liveness and its forward twin.
fn check_program(program: &Program) {
    let cfgs = Cfg::build_all(program);
    for cfg in &cfgs {
        let name = &cfg.function().name;
        let live = function_liveness_problem(program, cfg);
        check_against_oracle(&live.as_problem()).unwrap_or_else(|e| panic!("{name} liveness: {e}"));
        for entry in [EntryDefs::All, EntryDefs::Strict] {
            let reach = function_reaching_problem(program, cfg, entry);
            check_against_oracle(&reach.as_problem())
                .unwrap_or_else(|e| panic!("{name} reaching {entry:?}: {e}"));
        }
    }
    let sg = SuperGraph::build(program, &cfgs);
    check_against_oracle(&sg.liveness_problem())
        .unwrap_or_else(|e| panic!("supergraph liveness: {e}"));
    check_against_oracle(&sg.forward_problem())
        .unwrap_or_else(|e| panic!("supergraph forward: {e}"));
}

/// Empty problem (a function with no blocks contributes no nodes): the
/// solver and the reference must agree on the degenerate zero-node
/// system.
#[test]
fn empty_function_matches_oracle() {
    let p = OwnedProblem {
        direction: Direction::Backward,
        domain: 8,
        transfer: Vec::new(),
        succs: Vec::new(),
        boundary_nodes: Vec::new(),
        boundary_value: BitSet::new(8),
    };
    check_against_oracle(&p.as_problem()).unwrap();
    // And the smallest real function: one halt instruction, one block.
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    b.halt();
    b.end_function();
    check_program(&b.build().unwrap());
}

/// A single block that jumps to itself: a cyclic component of one node,
/// whose meet takes its own transfer output.
#[test]
fn single_block_self_loop_matches_oracle() {
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let top = b.fresh_label("top");
    b.bind_label(top);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    b.jmp(top);
    b.end_function();
    let program = b.build().unwrap();
    let cfg = Cfg::build(&program, program.function("main").unwrap());
    let live = function_liveness_problem(&program, &cfg);
    assert!(
        (0..live.succs.len())
            .any(|v| live.succs[v].contains(&v) && component_of(&live.succs, v) == [v]),
        "the self-loop must form a cyclic component"
    );
    check_program(&program);
}

/// An irreducible loop entered at two distinct blocks (a dominator-based
/// region split would cut it in two): the worklist fixpoint over it must
/// match the reference.
#[test]
fn irreducible_two_entry_loop_matches_oracle() {
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let e1 = b.fresh_label("e1");
    let e2 = b.fresh_label("e2");
    b.li(Reg::R1, 0); // entry: falls into e1, branches to e2
    b.br_imm(Cond::Lt, Reg::R1, 1, e2);
    b.bind_label(e1);
    b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
    b.jmp(e2);
    b.bind_label(e2);
    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
    b.br_imm(Cond::Lt, Reg::R3, 10, e1); // back edge; falls through to exit
    b.halt();
    b.end_function();
    let program = b.build().unwrap();
    let cfg = Cfg::build(&program, program.function("main").unwrap());
    let live = function_liveness_problem(&program, &cfg);
    assert!(
        (0..live.succs.len()).any(|v| component_of(&live.succs, v).len() >= 2),
        "e1 and e2 must share a component"
    );
    check_program(&program);
}

/// A supergraph where one function is a single giant SCC: a ring of
/// blocks, each conditionally branching to the next with a back edge
/// from the last. The whole ring is one component, so facts circulate
/// through every block before the fixpoint.
#[test]
fn giant_single_scc_function_matches_oracle() {
    const RING: usize = 24;
    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    b.call("ring");
    b.halt();
    b.end_function();
    b.begin_function("ring");
    let labels: Vec<_> = (0..RING).map(|i| b.fresh_label(&format!("r{i}"))).collect();
    for i in 0..RING {
        b.bind_label(labels[i]);
        b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.br_imm(Cond::Lt, Reg::R1, 1000, labels[(i + 1) % RING]);
    }
    b.ret();
    b.end_function();
    let program = b.build().unwrap();
    let cfgs = Cfg::build_all(&program);
    let ring_cfg = cfgs
        .iter()
        .find(|c| c.function().name == "ring")
        .expect("ring cfg");
    let live = function_liveness_problem(&program, ring_cfg);
    let biggest = (0..live.succs.len())
        .map(|v| component_of(&live.succs, v).len())
        .max()
        .unwrap();
    assert!(
        biggest >= RING,
        "expected a giant component, biggest was {biggest} of {} blocks",
        ring_cfg.len()
    );
    check_program(&program);
}

/// The fuzzed CFG distribution: ≥200 generated problems across every
/// shape.
#[test]
fn fuzzed_cfg_distribution_matches_oracle() {
    let mut checked = 0usize;
    for shape in CfgShape::ALL {
        for seed in 0..35 {
            let p = random_problem(seed, shape);
            check_against_oracle(&p.as_problem())
                .unwrap_or_else(|e| panic!("shape {} seed {seed}: {e}", shape.label()));
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} problems checked");
}
