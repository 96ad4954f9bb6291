//! Regenerates Figure 12: spawning from the dynamic reconvergence
//! predictor (trained online on the retirement stream, §4.4) versus
//! compiler-generated immediate postdominators.
//!
//! Usage: `fig12_reconvergence [--jobs N] [--max-cycles N] [--csv]
//! [workload ...]`
//! (default: all 12).

use polyflow_bench::sweep::{sweep, Cell};
use polyflow_bench::{cli, prepare_selection, print_speedup_csv, print_speedup_table};
use polyflow_core::Policy;

const SPEC: cli::Spec = cli::Spec {
    name: "fig12_reconvergence",
    about: "Regenerates Figure 12: spawning from the dynamic reconvergence \
            predictor versus compiler-generated immediate postdominators",
    flags: &[cli::JOBS, cli::MAX_CYCLES, cli::ASM, cli::CSV],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    let columns = vec!["rec_pred".to_string(), "postdoms".to_string()];

    let cells = [Cell::Baseline, Cell::Reconv, Cell::Static(Policy::Postdoms)];
    let (grid, report) = sweep(SPEC.name, &workloads, &cells, args.jobs(), |c| {
        args.machine(c)
    });
    let rows: Vec<(String, f64, Vec<f64>)> = workloads
        .iter()
        .zip(&grid)
        .map(|(w, row)| {
            let base = &row[0];
            let rec = row[1].speedup_percent_over(base);
            let pd = row[2].speedup_percent_over(base);
            (w.name.to_string(), base.ipc(), vec![rec, pd])
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
        "Figure 12: reconvergence-predictor spawning vs compiler postdominators",
        &rows,
        &columns,
    );
    println!();
    println!(
        "(Paper: the dynamic scheme gets close to the compiler-aided system but lags\n\
         appreciably on crafty, mcf and twolf — warm-up effects plus reconvergences\n\
         the forward-analysis predictor cannot learn, §4.4.)"
    );
    report.emit();
    if polyflow_bench::sweep::report_failures(&grid) {
        std::process::exit(1);
    }
}
