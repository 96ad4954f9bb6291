//! Regenerates Figure 5: the static distribution of control-equivalent
//! task types (percentage of LoopFT / ProcFT / Hammock / Other spawn
//! points per benchmark, with the total static spawn count atop each bar).
//!
//! Usage: `fig05_static_distribution [workload ...]` (default: all 12).

use polyflow_bench::{cli, prepare_selection};
use polyflow_core::SpawnKind;

const SPEC: cli::Spec = cli::Spec {
    name: "fig05_static_distribution",
    about: "Regenerates Figure 5: the static distribution of \
            control-equivalent task types per benchmark",
    flags: &[cli::JOBS, cli::ASM],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let workloads = prepare_selection(&cli::parse(&SPEC));
    println!("== Figure 5: static distribution of control-equivalent task types ==");
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>7} {:>7}",
        "benchmark", "LoopFT%", "ProcFT%", "Hammock%", "Other%", "total"
    );
    for w in &workloads {
        let d = w.analysis.static_distribution();
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>9.1} {:>7.1} {:>7}",
            w.name,
            d.percent(SpawnKind::LoopFallThrough),
            d.percent(SpawnKind::ProcFallThrough),
            d.percent(SpawnKind::Hammock),
            d.percent(SpawnKind::Other),
            d.total_postdom()
        );
    }
    println!();
    println!(
        "(Paper: hammocks, loop fall-throughs and procedure fall-throughs are all\n\
         important task types; \"other\" is a small fraction, largely indirect jumps;\n\
         static totals range from 381 [mcf] to 13 707 [gcc] — our stand-ins are\n\
         kernels, so totals are smaller but gcc remains the largest.)"
    );
}
