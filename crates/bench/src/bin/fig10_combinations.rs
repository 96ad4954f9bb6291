//! Regenerates Figure 10: combinations of heuristics (loop + loopFT,
//! loopFT + procFT, loop + procFT + loopFT) versus full postdominator
//! spawning, as speedup over the superscalar.
//!
//! Usage: `fig10_combinations [--jobs N] [--max-cycles N] [--csv]
//! [workload ...]`
//! (default: all 12).

use polyflow_bench::sweep::{sweep, Cell};
use polyflow_bench::{cli, prepare_selection, print_speedup_csv, print_speedup_table};
use polyflow_core::Policy;

const SPEC: cli::Spec = cli::Spec {
    name: "fig10_combinations",
    about: "Regenerates Figure 10: combinations of heuristics versus full \
            postdominator spawning, as speedup over the superscalar",
    flags: &[cli::JOBS, cli::MAX_CYCLES, cli::ASM, cli::CSV],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    let policies = Policy::figure10();
    let columns: Vec<String> = policies.iter().map(|p| p.name()).collect();

    let cells: Vec<Cell> = std::iter::once(Cell::Baseline)
        .chain(policies.iter().map(|&p| Cell::Static(p)))
        .collect();
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
        report.emit();
        if polyflow_bench::sweep::report_failures(&grid) {
            std::process::exit(1);
        }
        return;
    }
    print_speedup_table(
        "Figure 10: combinations of heuristics (speedup % over superscalar)",
        &rows,
        &columns,
    );
    // The paper's headline: postdoms beats the best combination by ~33%.
    let n = rows.len() as f64;
    let avg: Vec<f64> = (0..columns.len())
        .map(|i| rows.iter().map(|r| r.2[i]).sum::<f64>() / n)
        .collect();
    let best_combo = avg[..3].iter().cloned().fold(f64::MIN, f64::max);
    println!();
    println!(
        "postdoms average {:.1}% vs best combination {:.1}% => {:.0}% more speedup",
        avg[3],
        best_combo,
        100.0 * (avg[3] - best_combo) / best_combo.max(1e-9)
    );
    report.emit();
    if polyflow_bench::sweep::report_failures(&grid) {
        std::process::exit(1);
    }
}
