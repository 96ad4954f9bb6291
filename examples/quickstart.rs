//! Quickstart: the paper's running example (Figures 1–4).
//!
//! Builds the six-block flow graph of Figure 1 — a loop containing an
//! if-then-else — then prints its postdominator tree (Figure 2), its
//! control-dependence relation (Figure 3), and the control-equivalent
//! spawn points that let a machine fetch like Figure 4.
//!
//! Run with: `cargo run --example quickstart`

use polyflow::cfg::{Cfg, ControlDeps, DomTree, LoopForest};
use polyflow::core::{Policy, ProgramAnalysis};
use polyflow::isa::{AluOp, Cond, Pc, ProgramBuilder, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Figure 1: the flow graph ------------------------------------------------
    // A: induction update, B: if-else branch, C: then arm, D: else arm,
    // E: join, F: loop branch.
    let mut b = ProgramBuilder::named("fig1");
    b.begin_function("fig1");
    let la = b.fresh_label("A");
    let ld = b.fresh_label("D");
    let le = b.fresh_label("E");
    b.bind_label(la);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1); // A
    b.br_imm(Cond::Eq, Reg::R2, 0, ld); // B
    b.alui(AluOp::Add, Reg::R3, Reg::R3, 1); // C
    b.jmp(le);
    b.bind_label(ld);
    b.alui(AluOp::Add, Reg::R4, Reg::R4, 1); // D
    b.bind_label(le);
    b.alui(AluOp::Add, Reg::R5, Reg::R5, 1); // E
    b.br_imm(Cond::Lt, Reg::R1, 3, la); // F
    b.halt();
    b.end_function();
    let program = b.build()?;

    println!("=== Figure 1: control flow graph ===");
    println!("{}", program.listing());
    let cfg = Cfg::build(&program, program.function("fig1").unwrap());
    print!("{}", cfg.to_dot());

    // ---- Figure 2: the postdominator tree ----------------------------------------
    println!("\n=== Figure 2: postdominator tree (parent = immediate postdominator) ===");
    let pdom = DomTree::postdominators(&cfg);
    for block in cfg.blocks() {
        match pdom.idom(block.id) {
            Some(p) => println!("  ipostdom({}) = {}", block.id, p),
            None => println!("  ipostdom({}) = <virtual exit>", block.id),
        }
    }

    // ---- Figure 3: control dependence ---------------------------------------------
    println!("\n=== Figure 3: control dependence ===");
    let cd = ControlDeps::compute(&cfg, &pdom);
    for block in cfg.blocks() {
        let deps: Vec<String> = cd
            .deps_of(block.id)
            .iter()
            .map(|(b, k)| format!("{b} ({k:?} edge)"))
            .collect();
        if !deps.is_empty() {
            println!("  {} is control dependent on {}", block.id, deps.join(", "));
        }
    }

    // Loops, for completeness.
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::compute(&cfg, &dom);
    println!("\nNatural loops: {}", loops.len());
    for l in loops.loops() {
        println!("  header {} body {:?}", l.header, l.body);
    }

    // ---- Figure 4: control-equivalent spawn points --------------------------------
    println!("\n=== Control-equivalent spawn points (enable Figure 4's fetch order) ===");
    let analysis = ProgramAnalysis::analyze(&program);
    for sp in analysis.spawn_table(Policy::Postdoms).points() {
        println!(
            "  fetch {} => may spawn a task at {} [{}]",
            sp.trigger, sp.target, sp.kind
        );
    }
    println!(
        "\nWhen the fetch unit reaches the branch in B it can spawn E: E is\n\
         control equivalent to B, so the new task is no more speculative than\n\
         the path that led to the branch (paper §2.1)."
    );

    // Sanity: E postdominates B.
    let b_block = cfg.block_at(Pc::new(2)).unwrap();
    let e_block = cfg.block_at(Pc::new(6)).unwrap();
    assert!(pdom.dominates(e_block, b_block));

    // ---- Figure 4: a dynamic fetch ordering ---------------------------------------
    // Execute the program, then replay it through the PolyFlow machine and
    // print the spawns the Task Spawn Unit performed — each one opens a
    // parallel fetch stream at a control-equivalent point, which is
    // exactly the unfolding Figure 4 depicts.
    use polyflow::isa::execute_window;
    use polyflow::sim::{
        simulate, MachineConfig, NullSink, PreparedTrace, SimOptions, SimScratch, StaticSpawnSource,
    };

    let trace = execute_window(&program, 10_000)?.trace;
    let cfg_pf = MachineConfig {
        min_spawn_distance: 1, // the example's blocks are tiny
        ..MachineConfig::hpca07()
    };
    let prepared = PreparedTrace::new(&trace, &cfg_pf);
    let mut source = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
    let mut scratch = SimScratch::default();
    let result = simulate(
        &prepared,
        &cfg_pf,
        &mut source,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )?
    .0;

    println!("\n=== Figure 4: dynamic fetch ordering (spawn log) ===");
    for ev in &result.spawn_log {
        println!(
            "  cycle {:>3}: fetching {} spawned a task at {} [{}] ({} tasks live)",
            ev.cycle, ev.trigger, ev.target, ev.kind, ev.live_tasks
        );
    }
    println!(
        "\n{} instructions retired in {} cycles (IPC {:.2}) with {} spawns.",
        result.instructions,
        result.cycles,
        result.ipc(),
        result.total_spawns()
    );
    Ok(())
}
