//! Regenerates Figure 9: speedup of each individual heuristic spawn
//! policy (loop, loopFT, procFT, hammock, other, postdoms) over the
//! equivalent-resource superscalar, with superscalar IPCs per benchmark.
//!
//! Usage: `fig09_individual_heuristics [--jobs N] [--max-cycles N]
//! [--predicted-deps] [--csv] [workload ...]`
//! (default: all 12 workloads, one worker per available CPU).
//! `--predicted-deps` gives `results/fig09_predicted_dependences.txt`.

use polyflow_bench::sweep::{figure9_cells, sweep};
use polyflow_bench::{cli, prepare_selection, print_speedup_csv, print_speedup_table};
use polyflow_core::Policy;

const SPEC: cli::Spec = cli::Spec {
    name: "fig09_individual_heuristics",
    about: "Regenerates Figure 9: speedup of each individual heuristic \
            spawn policy over the equivalent-resource superscalar",
    flags: &[
        cli::JOBS,
        cli::MAX_CYCLES,
        cli::PREDICTED_DEPS,
        cli::ASM,
        cli::CSV,
    ],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    let columns: Vec<String> = Policy::figure9().iter().map(|p| p.name()).collect();

    let cells = figure9_cells();
    let (grid, report) = sweep(SPEC.name, &workloads, &cells, args.jobs(), |c| {
        args.machine(c)
    });
    let rows: Vec<(String, f64, Vec<f64>)> = workloads
        .iter()
        .zip(&grid)
        .map(|(w, row)| {
            let base = &row[0];
            let speedups: Vec<f64> = row[1..]
                .iter()
                .map(|r| r.speedup_percent_over(base))
                .collect();
            (w.name.to_string(), base.ipc(), speedups)
        })
        .collect();
    if args.switch(&cli::CSV) {
        print_speedup_csv(&rows, &columns);
    } else {
        print_speedup_table(
            "Figure 9: individual heuristic policies (speedup % over superscalar)",
            &rows,
            &columns,
        );
    }
    report.emit();
    if polyflow_bench::sweep::report_failures(&grid) {
        std::process::exit(1);
    }
}
