//! Static verifier over the bundled workloads.
//!
//! Runs every check in `polyflow_core::verify` — unreachable blocks,
//! undefined register uses, malformed terminators, irreducible loops, the
//! immediate-postdominator cross-check against the set-based reference,
//! and spawn-table legality — over each bundled workload, and prints a
//! hint-capacity report: spawn targets whose statically predicted live-in
//! set exceeds the hint entry's register slots (§3.1).
//!
//! The dataflow solves behind the lint pass run on the SCC-parallel
//! solver (DESIGN.md §12); `--jobs`/`POLYFLOW_JOBS` picks the worker
//! count and each workload row reports solve wall-clock, split into the
//! per-function problems (liveness + reaching defs over every CFG) and
//! the whole-program supergraph liveness. Results are bit-identical at
//! every worker count — timing is the only thing `--jobs` changes.
//!
//! Exit status is 0 iff no workload produced a diagnostic; hint-capacity
//! overflow is a report, not an error (the hardware degrades gracefully).
//!
//! Usage: `lint [--jobs N] [workload...]` (default: all workloads)

use std::time::Instant;

use polyflow_bench::stopwatch::fmt_duration;
use polyflow_cfg::Cfg;
use polyflow_core::{verify, ProgramAnalysis, VerifyOptions};
use polyflow_dataflow::{EntryDefs, LiveSets, ReachingDefs};
use polyflow_sim::MachineConfig;

const SPEC: polyflow_bench::cli::Spec = polyflow_bench::cli::Spec {
    name: "lint",
    about: "Static verifier over the bundled workloads (exit 0 iff no \
            diagnostics), with a hint-capacity pressure report",
    flags: &[polyflow_bench::cli::JOBS, polyflow_bench::cli::ASM],
    takes_workloads: true,
};

fn main() {
    let args = polyflow_bench::cli::parse(&SPEC);
    let jobs = args.jobs;
    let mut workloads: Vec<_> = if args.asm.is_empty() || !args.filter.is_empty() {
        polyflow_workloads::all()
            .into_iter()
            .filter(|w| args.filter.is_empty() || args.filter.contains(&w.name))
            .collect()
    } else {
        Vec::new()
    };
    for path in &args.asm {
        match polyflow_workloads::from_asm_file(path) {
            Ok(w) => workloads.push(w),
            Err(e) => {
                eprintln!("cannot load workload `{path}`: {e}");
                std::process::exit(2);
            }
        }
    }

    let opts = VerifyOptions {
        hint_register_slots: MachineConfig::hpca07().hint_register_slots,
        ..VerifyOptions::default()
    };
    let mut total_diags = 0usize;
    let mut total_overflows = 0usize;

    println!("lint: {jobs} solver job(s)");
    for w in &workloads {
        // Per-function solves: every problem the intraprocedural analyses
        // pose (liveness plus reaching defs under both entry policies).
        let fn_start = Instant::now();
        let cfgs = Cfg::build_all(&w.program);
        for cfg in &cfgs {
            let _ = LiveSets::compute(&w.program, cfg);
            for entry in [EntryDefs::All, EntryDefs::Strict] {
                let _ = ReachingDefs::compute_with(&w.program, cfg, entry);
            }
        }
        let fn_solve = fn_start.elapsed();

        // The supergraph solve rides inside the whole-program analysis.
        let sg_start = Instant::now();
        let analysis = ProgramAnalysis::analyze_with_jobs(&w.program, jobs);
        let sg_solve = sg_start.elapsed();

        let report = verify(&w.program, &analysis, &opts);

        let overflows: Vec<_> = report.hint_overflows().collect();
        println!(
            "{:<10} {:>5} insts {:>4} spawn points {:>3} diagnostics {:>3} hint overflows \
             fn-solve {:>9} supergraph {:>9}",
            w.name,
            w.program.len(),
            analysis.candidates().len(),
            report.diagnostics.len(),
            overflows.len(),
            fmt_duration(fn_solve),
            fmt_duration(sg_solve),
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
