//! Regenerates Figure 11: the loss in percent speedup (normalized to the
//! superscalar) when one spawn category is excluded from the full
//! postdominator set. Positive loss = the excluded category mattered.
//!
//! Usage: `fig11_exclusions [--jobs N] [--max-cycles N] [workload ...]`
//! (default: all 12).

use polyflow_bench::sweep::{sweep, Cell};
use polyflow_bench::{cli, prepare_selection};
use polyflow_core::Policy;

const SPEC: cli::Spec = cli::Spec {
    name: "fig11_exclusions",
    about: "Regenerates Figure 11: the loss in percent speedup when one \
            spawn category is excluded from the full postdominator set",
    flags: &[cli::JOBS, cli::MAX_CYCLES, cli::ASM],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    let policies = Policy::figure11();

    let cells: Vec<Cell> = [Cell::Baseline, Cell::Static(Policy::Postdoms)]
        .into_iter()
        .chain(policies.iter().map(|&p| Cell::Static(p)))
        .collect();
    let (grid, report) = sweep(SPEC.name, &workloads, &cells, args.jobs(), |c| {
        args.machine(c)
    });

    println!("== Figure 11: loss in speedup vs full postdominator set (percentage points) ==");
    print!("{:<12}", "benchmark");
    for p in policies {
        print!(" {:>22}", p.name());
    }
    println!();
    let mut sums = [0.0f64; 4];
    let mut counts = [0usize; 4];
    for (w, row) in workloads.iter().zip(&grid) {
        let base = &row[0];
        let full = row[1].speedup_percent_over(base);
        print!("{:<12}", w.name);
        for (i, r) in row[2..].iter().enumerate() {
            let without = r.speedup_percent_over(base);
            // Loss normalized to superscalar IPC, as in the paper: the
            // drop in speedup percentage points. NaN = a failed cell.
            let loss = full - without;
            if loss.is_nan() {
                print!(" {:>22}", "FAILED");
            } else {
                sums[i] += loss;
                counts[i] += 1;
                print!(" {loss:>21.1}%");
            }
        }
        println!();
    }
    print!("{:<12}", "Average");
    for (s, n) in sums.iter().zip(counts) {
        if n == 0 {
            print!(" {:>22}", "FAILED");
        } else {
            print!(" {:>21.1}%", s / n as f64);
        }
    }
    println!();
    println!();
    println!(
        "(Paper: vpr.route loses 29% without loopFT; vortex 56% without procFT;\n\
         perlbmk 21% and mcf 16% without hammocks; crafty/mcf/perlbmk drop without\n\
         \"other\". Small negative losses are possible: restricting the spawn set\n\
         occasionally helps a benchmark that is receptive to one kind, §4.3.)"
    );
    report.emit();
    if polyflow_bench::sweep::report_failures(&grid) {
        std::process::exit(1);
    }
}
