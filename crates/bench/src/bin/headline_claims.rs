//! Checks the paper's headline claims (§1, §6) against this
//! reproduction's measurements:
//!
//! 1. Control-equivalent spawning achieves, on average, **more than double
//!    the speedup of the best individual heuristic** (Figure 9).
//! 2. It achieves **~33% more speedup than the best heuristic
//!    combination** (Figure 10).
//! 3. Control-equivalent spawning either outperforms or comes close to the
//!    best individual heuristic on each benchmark (§4.1).

use polyflow_bench::sweep::{sweep, Cell};
use polyflow_bench::{cli, prepare_selection};
use polyflow_core::Policy;

const SPEC: cli::Spec = cli::Spec {
    name: "headline_claims",
    about: "Checks the paper's headline claims (§1/§6) against this \
            reproduction's measurements",
    flags: &[cli::JOBS, cli::MAX_CYCLES, cli::ASM],
    operands: cli::Operands::Workloads,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let workloads = prepare_selection(&args);
    let individual = Policy::figure9();
    let combos = Policy::figure10();

    // One grid covers both figures; `postdoms` (the last entry of each
    // policy list) is simulated once and reused for both averages.
    let cells: Vec<Cell> = std::iter::once(Cell::Baseline)
        .chain(individual.iter().map(|&p| Cell::Static(p)))
        .chain(combos[..combos.len() - 1].iter().map(|&p| Cell::Static(p)))
        .collect();
    let (grid, report) = sweep(SPEC.name, &workloads, &cells, args.jobs(), |c| {
        args.machine(c)
    });

    let n = workloads.len() as f64;
    let mut avg_individual = vec![0.0; individual.len()];
    let mut avg_combo = vec![0.0; combos.len()];
    let mut per_bench_ok = 0usize;

    for row in &grid {
        let base = &row[0];
        let speedups: Vec<f64> = row[1..=individual.len()]
            .iter()
            .map(|r| r.speedup_percent_over(base))
            .collect();
        for (i, s) in speedups.iter().enumerate() {
            avg_individual[i] += s / n;
        }
        // Claim 3: postdoms ≥ best heuristic − small tolerance.
        let postdoms = speedups[individual.len() - 1];
        let best_heuristic = speedups[..individual.len() - 1]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        if postdoms >= best_heuristic - 5.0 {
            per_bench_ok += 1;
        }
        for (i, r) in row[individual.len() + 1..].iter().enumerate() {
            avg_combo[i] += r.speedup_percent_over(base) / n;
        }
        avg_combo[combos.len() - 1] += postdoms / n;
    }

    let postdoms_avg = avg_individual[individual.len() - 1];
    let best_ind = avg_individual[..individual.len() - 1]
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    let best_combo = avg_combo[..combos.len() - 1]
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);

    println!("== Headline claims (paper §1/§6 vs this reproduction) ==");
    println!(
        "1. postdoms avg {postdoms_avg:.1}% vs best individual heuristic {best_ind:.1}% \
         => ratio {:.2}x (paper: >2x) {}",
        postdoms_avg / best_ind.max(1e-9),
        if postdoms_avg > 2.0 * best_ind {
            "PASS"
        } else {
            "MISS"
        }
    );
    // Claim 2 is checked for *direction only* (postdoms must beat the
    // best combination at all); the paper's ~33% margin does not
    // reproduce on these synthetic stand-ins and the gap is annotated
    // explicitly instead of being silently folded into a PASS (see
    // EXPERIMENTS.md "Headline claims" for why the magnitude deviates).
    let margin = 100.0 * (postdoms_avg - best_combo) / best_combo.max(1e-9);
    println!(
        "2. postdoms avg {postdoms_avg:.1}% vs best combination {best_combo:.1}% \
         => {margin:.0}% more (paper: ~33%; gap {:.0}pp, magnitude NOT reproduced \
         -- see EXPERIMENTS.md) {}",
        margin - 33.0,
        if postdoms_avg > best_combo {
            "PASS[direction-only]"
        } else {
            "MISS"
        }
    );
    println!(
        "3. postdoms >= best individual heuristic (within tolerance) on \
         {per_bench_ok}/{} benchmarks {}",
        workloads.len(),
        if per_bench_ok * 10 >= workloads.len() * 9 {
            "PASS"
        } else {
            "MISS"
        }
    );
    report.emit();
    if polyflow_bench::sweep::report_failures(&grid) {
        std::process::exit(1);
    }
}
