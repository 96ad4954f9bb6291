//! Annotated disassembly of a workload: the listing with each spawn
//! trigger marked with its target and classification, plus per-function
//! analysis summaries (blocks, loops, branches without postdominators).
//!
//! Usage: `inspect [workload] [function]` (default: twolf, every
//! function).

use polyflow_bench::cli::{self, Operands, Spec};
use polyflow_core::ProgramAnalysis;
use polyflow_isa::Pc;
use std::collections::HashMap;

const SPEC: Spec = Spec {
    name: "inspect",
    about: "annotated disassembly of a workload (default: twolf)",
    flags: &[],
    operands: Operands::Words(&["[workload]", "[function]"]),
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let w = args.workload(args.filter.first().map_or("twolf", String::as_str));
    let function_filter = args.filter.get(1);
    let analysis = ProgramAnalysis::analyze(&w.program);
    let spawns: HashMap<Pc, String> = analysis
        .candidates()
        .iter()
        .map(|sp| (sp.trigger, format!("<= spawn {} [{}]", sp.target, sp.kind)))
        .collect();

    for f in analysis.functions() {
        let fname = &f.cfg.function().name;
        if let Some(filter) = function_filter {
            if fname != filter {
                continue;
            }
        }
        println!(
            "\n{fname}: {} blocks, {} loops, {} spawn candidates",
            f.cfg.len(),
            f.loops.len(),
            f.candidates().len()
        );
        for block in f.cfg.blocks() {
            let loop_note = f
                .loops
                .innermost(block.id)
                .map(|l| format!(" (loop depth {})", l.depth))
                .unwrap_or_default();
            let ipd = match f.pdom.idom(block.id) {
                Some(p) => format!("{p}"),
                None => "exit".into(),
            };
            println!("  {}{} ipostdom={}", block.id, loop_note, ipd);
            for i in block.start.index()..block.end.index() {
                let pc = Pc::new(i as u32);
                let note = spawns.get(&pc).map(String::as_str).unwrap_or("");
                println!("    {pc}: {:<28} {note}", w.program.inst(pc).to_string());
            }
        }
    }
    let d = analysis.static_distribution();
    println!("\nstatic spawn distribution: {d}");
}
