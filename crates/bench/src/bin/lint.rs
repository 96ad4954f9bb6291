//! Static verifier over the bundled workloads.
//!
//! Runs every check in `polyflow_core::verify` — unreachable blocks,
//! undefined register uses, malformed terminators, irreducible loops, the
//! immediate-postdominator cross-check against the set-based reference,
//! and spawn-table legality — over each bundled workload, and prints a
//! hint-capacity report: spawn targets whose statically predicted live-in
//! set exceeds the hint entry's register slots (§3.1).
//!
//! Exit status is 0 iff no workload produced a diagnostic; hint-capacity
//! overflow is a report, not an error (the hardware degrades gracefully).
//!
//! Usage: `lint [--asm PATH] [workload...]` (default: all workloads)

use polyflow_core::{verify, ProgramAnalysis, VerifyOptions};
use polyflow_sim::MachineConfig;

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "lint",
    about: "Static verifier over the bundled workloads (exit 0 iff no \
            diagnostics), with a hint-capacity pressure report",
    flags: &[polyflow_bench::cli::ASM],
    operands: polyflow_bench::cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let workloads = polyflow_bench::select_workloads(&polyflow_bench::cli::parse(&SPEC));

    let opts = VerifyOptions {
        hint_register_slots: MachineConfig::hpca07().hint_register_slots,
        ..VerifyOptions::default()
    };
    let mut total_diags = 0usize;
    let mut total_overflows = 0usize;

    for w in &workloads {
        let analysis = ProgramAnalysis::analyze(&w.program);
        let report = verify(&w.program, &analysis, &opts);

        let overflows: Vec<_> = report.hint_overflows().collect();
        println!(
            "{:<10} {:>5} insts {:>4} spawn points {:>3} diagnostics {:>3} hint overflows",
            w.name,
            w.program.len(),
            analysis.candidates().len(),
            report.diagnostics.len(),
            overflows.len(),
        );
        for d in &report.diagnostics {
            println!("  {d}");
        }
        for h in &overflows {
            let regs: Vec<String> = h.live_in.iter().map(|r| r.to_string()).collect();
            println!(
                "  [hint-capacity] {} needs {} live-in regs ({}) > {} slots",
                h.spawn,
                h.live_in.len(),
                regs.join(","),
                h.slots,
            );
        }
        total_diags += report.diagnostics.len();
        total_overflows += overflows.len();
    }

    println!(
        "\n{} workloads: {} diagnostics, {} hint-capacity overflows",
        workloads.len(),
        total_diags,
        total_overflows,
    );
    if total_diags > 0 {
        std::process::exit(1);
    }
}
